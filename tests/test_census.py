"""The reachability census's owner table stays in step with the code.

``benchmarks/census.py`` reports what nothing but tests reaches, which
parameters and dataclass fields only ever hold their default, and which
stored attributes no module reads, unless an ``OWNERS`` pattern names
the document or oracle that keeps it.  A pattern that matches nothing
would keep nothing: deleting code must take its owner line with it.
The attribute view is static, so it is checked here outright: state
nobody reads is deleted or owned.
"""

import ast
import importlib.util
import os
from fnmatch import fnmatchcase

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location(
        "census", os.path.join(ROOT, "benchmarks", "census.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def unread(census):
    return census.unread_state()


@pytest.fixture(scope="module")
def names(census, unread):
    return census.names(census.inventory()) + [row["name"] for row in unread]


def test_every_owner_matches_a_name_in_the_inventory(census, names):
    stale = [
        pattern
        for pattern, _ in census.OWNERS
        if not any(fnmatchcase(name, pattern) for name in names)
    ]
    assert stale == []


def test_inventory_names_dataclass_fields(names):
    assert "repro.net.medium.ChaosConfig(loss_rate)" in names
    assert "repro.sim.topology.TopologySpec(telemetry)" in names
    assert "repro.sim.world.World.run_until_done(max_events)" in names


def test_every_attribute_stored_is_read_or_owned(unread):
    assert [row["name"] for row in unread if row["owner"] is None] == []


def test_writing_is_not_reading(census):
    tree = ast.parse(
        "x.a = 1\nx.b += 1\nx.c[k] = 1\nx.d.append(1)\nx.e.update({})\n"
        "d['f'] = x.g\ny = {'h': 1}.get('i') or getattr(x, 'j')\n"
    )
    loaded = census._loaded(tree)
    assert {"g", "j"} <= loaded
    assert not set("abcdefhi") & loaded


PLANTED = """
class Kept:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1
        return self.count


class Lost:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


class Heir(Kept):
    def reset(self):
        self.count = 0
"""


def test_a_read_on_self_counts_for_its_own_class_only(census):
    """``Kept`` reads its ``count`` and ``Heir`` inherits that read;
    ``Lost`` only writes its own, which a name-keyed view would miss."""
    package = [("planted", "planted.py", ast.parse(PLANTED))]
    assert [row["name"] for row in census.unread(package, [])] == [
        "planted.Lost.count"
    ]
    assert census.unread(package, ["print(tally.count)"]) == []
