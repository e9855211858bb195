"""Guard: re-binding one rule under the IR engine compiles a chain only
for a never-seen shape, lowers a rule only for a never-seen skeleton
(into a chain of one entry or of several) and reads the necessary tests
of the buckets it changes, not of the set; a cold compile compiles once
per chain shape (the probe's one factory is loaded at import) and
lowers once per skeleton, chains of several entries included; reading
a set's ``source`` lowers nothing; and a packet through the compiled
set costs a counted number of bytecodes.

The incremental re-bind, compiled against the set it replaces, is
pinned as counts: code objects compiled, rules lowered, rebuilt
dispatch-tree nodes and entries whose necessary tests are read per
re-bind, the last two at 128 and at 2 000 rules under one bound.  A
re-bind that moves the root's key re-links every bucket and lowers
nothing.  The IR passes
themselves are pinned as counts by ``test_compiled_shape_at_100_rules``
(``tests/difftest/test_matrix_smoke.py``), the per-packet path by
``test_sim_call_budget.py``'s calls per deliver and, below, by the
bytecodes one ``deliver`` executes on a 100-rule ACL.
"""

import sys

import pytest

from repro.core import irgen, opt
from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.irgen import SetEntry, compile_ir_set
from repro.core.port import Port
from repro.core.program import FilterProgram, asm
from repro.core.validator import validate
from repro.core.words import pack_words
from ruleset_gen import generate_adversarial_ruleset

REBIND_RULES = 128

DELIVER_BYTECODE_RULES = 100
DELIVER_BYTECODE_CEILING = 228.0
"""Bytecodes per steady-state ``deliver`` on 100 :func:`_acl_rule`
rules, measured 224.0 on CPython 3.11 (other versions not measured).
Testing each rule's run of word equalities one word at a time again
reads 240.0, ending its chain in an accept flag and a loop again 230.4,
and ``deliver`` calling through ``_finish`` and a ``classify`` closure
again 241.0; before all three it read 263.4."""


def _acl_rule(port: int, serial: int):
    return compile_expr(
        (word(6) == port) & (word(4) == 6) & (word(5) == serial)
        & (word(0) == 0x0A00) & (word(1) == serial ^ 0x5555),
        priority=10,
    )


def _extra_word_rule(port: int, serial: int, extra: int):
    """:func:`_acl_rule` plus a test of word ``7 + extra``: a shape no
    other ``extra`` has."""
    return compile_expr(
        (word(6) == port) & (word(4) == 6) & (word(5) == serial)
        & (word(0) == 0x0A00) & (word(1) == serial ^ 0x5555)
        & (word(7 + extra) == extra),
        priority=10,
    )


def _counting_loads(monkeypatch) -> list:
    """Patch :func:`repro.core.irgen._load_factory` to note the source
    of every factory it compiles, in the returned list."""
    load_factory = irgen._load_factory
    compiled_sources = []

    def counting(source):
        compiled_sources.append(source)
        return load_factory(source)

    monkeypatch.setattr(irgen, "_load_factory", counting)
    return compiled_sources


def _counting_lowerings(monkeypatch) -> list:
    """Patch ``lower_program`` where the set compiler calls it,
    :mod:`repro.core.opt` alone (the code generator lowers nothing), to
    note each program it lowers, in the returned list."""
    assert not hasattr(irgen, "lower_program"), "irgen lowers rules too"
    lower_program = opt.lower_program
    lowered = []

    def counting(program, *args):
        lowered.append(program)
        return lower_program(program, *args)

    monkeypatch.setattr(opt, "lower_program", counting)
    return lowered


def _nodes(tree):
    yield tree
    for subtree in tree.buckets.values():
        yield from _nodes(subtree)
    if tree.fallback is not None:
        yield from _nodes(tree.fallback)


def test_rebind_against_the_previous_set_rebuilds_one_bucket(
    monkeypatch, emit
):
    """SETFILTER on one of 128 rules, compiled against the set it
    replaces, rebuilds the root and the re-bound rule's bucket, and
    nothing else; the other 127 buckets and their linked chains are the
    previous set's own.  The rebuilt chain is compiled only when its
    shape is new to the set: a rule with the five-tuple's shape and
    different constants loads no factory, a rule testing one more word
    than any before it loads exactly one.  Counted, not timed."""
    compiled_sources = _counting_loads(monkeypatch)
    programs = [_acl_rule(1024 + slot, slot) for slot in range(REBIND_RULES)]
    entries = [
        SetEntry(slot, program, validate(program), False)
        for slot, program in enumerate(programs)
    ]
    compiled = compile_ir_set(entries)
    for serial in range(9):
        # The re-bound port keeps its key and moves to the end of its
        # priority class; the rule has never been seen, and on odd
        # re-binds neither has its shape.
        slot = (serial * 37) % REBIND_RULES
        new_shape = serial % 2 == 1
        if new_shape:
            program = _extra_word_rule(1024 + slot, 1000 + serial, serial)
        else:
            program = _acl_rule(1024 + slot, 1000 + serial)
        entries = [entry for entry in entries if entry.key != slot]
        entries.append(SetEntry(slot, program, validate(program), False))
        del compiled_sources[:]
        previous, compiled = compiled, compile_ir_set(
            entries, previous=compiled
        )
        compiles = len(compiled_sources)
        kept = {id(node) for node in _nodes(previous._root)}
        rebuilt = [
            node for node in _nodes(compiled._root)
            if id(node) not in kept
        ]
        assert compiles == new_shape, (
            f"{compiles} code objects compiled for one re-bind "
            f"({'new' if new_shape else 'known'} shape)"
        )
        assert len(rebuilt) <= 2, f"{len(rebuilt)} tree nodes rebuilt"
        sport = 1000 + serial
        words = [0x0A00, sport ^ 0x5555, 0, 0, 6, sport, 1024 + slot]
        if new_shape:
            words += [0] * serial + [serial]
        assert compiled.classify(pack_words(words)) == ((slot,), 1)
    emit(
        "re-bind against the previous set: 0 chains compiled for a known "
        f"shape, 1 for a new one; {len(rebuilt)} of "
        f"{len(list(_nodes(compiled._root)))} tree nodes rebuilt"
    )


COLD_RULES = 1000
COLD_CHAIN_LOADS = 2
"""Chain factories a cold compile of :data:`COLD_RULES` one-shape rules
may load: the rules' shape and the empty fallback chain's.  The probe
loads none: its one factory is loaded when :mod:`repro.core.irgen` is
imported."""


def test_cold_compile_loads_one_factory_per_shape(monkeypatch, emit):
    """A cold compile of 1 000 rules that differ only in their
    constants compiles each chain shape once, not each chain: the
    chains are instantiated from factories the set's shape table
    already holds, and the probe from the one loaded at import.  Loaded
    1 002 factories while each chain was its own source text.  Counted,
    not timed."""
    compiled_sources = _counting_loads(monkeypatch)
    programs = [_acl_rule(1024 + slot, slot) for slot in range(COLD_RULES)]
    compiled = compile_ir_set([
        SetEntry(slot, program, validate(program), False)
        for slot, program in enumerate(programs)
    ])
    assert compiled.stats.chains == COLD_RULES + 1
    probes = compiled_sources.count(irgen._DISPATCH_SOURCE)
    chains = len(compiled_sources) - probes
    assert probes == 0, f"{probes} probe factories loaded"
    assert chains <= COLD_CHAIN_LOADS, (
        f"{chains} chain factories loaded for {COLD_RULES} one-shape rules"
    )
    for slot in (0, COLD_RULES // 2, COLD_RULES - 1):
        packet = _acl_packet(1024 + slot, slot)
        assert compiled.classify(packet) == ((slot,), 1)
    emit(
        f"cold compile of {COLD_RULES} one-shape rules: {chains} chain "
        f"factories and {probes} probe loaded"
    )


COLD_SKELETONS = 5
"""Skeletons among :data:`COLD_RULES` :func:`_acl_rule` rules: serials
0, 1 and 255 compile to constant pushes, and serial 6 equals the
protocol literal, so each of those four rules has a skeleton of its own
beside the one the other 996 share."""


def test_cold_compile_lowers_once_per_skeleton(monkeypatch, emit):
    """A cold compile of 1 000 rules lowers one rule of each skeleton
    and reads the other rules' necessary tests and chains off that
    rule's template.  Lowered every rule (1 000) before templates.
    Counted, not timed."""
    lowered = _counting_lowerings(monkeypatch)
    programs = [_acl_rule(1024 + slot, slot) for slot in range(COLD_RULES)]
    compiled = compile_ir_set([
        SetEntry(slot, program, validate(program), False)
        for slot, program in enumerate(programs)
    ])
    skeletons = {opt.skeleton(program)[0] for program in programs}
    assert len(skeletons) == COLD_SKELETONS
    assert len(lowered) <= len(skeletons), (
        f"{len(lowered)} rules lowered for {len(skeletons)} skeletons"
    )
    for slot in (0, 1, 6, 255, COLD_RULES - 1):
        packet = _acl_packet(1024 + slot, slot)
        assert compiled.classify(packet) == ((slot,), 1)
    emit(
        f"cold compile of {COLD_RULES} rules: {len(lowered)} lowered for "
        f"{len(skeletons)} skeletons"
    )


def _entries(programs) -> list:
    return [
        SetEntry(slot, program, validate(program), False)
        for slot, program in enumerate(programs)
    ]


def test_adversarial_compile_and_listing_lower_once_per_skeleton(
    monkeypatch, emit
):
    """A cold compile of the 1 000-rule adversarial set, one bucket of
    1 000 entries, lowers one rule of each skeleton and builds every
    other rule of the chain from its skeleton's template; one read of
    the set's ``source`` lists the linked chain and lowers nothing.
    Lowered 1 000 + 1 000 while a chain of several entries lowered each
    of its rules and the listing emitted every chain again.  Counted,
    not timed."""
    programs, _ = generate_adversarial_ruleset(COLD_RULES)
    lowered = _counting_lowerings(monkeypatch)
    compiled = compile_ir_set(_entries(programs))
    compiling = len(lowered)
    (bucket,) = compiled._root.buckets.values()
    assert len(bucket.entries) == COLD_RULES
    compiled.source
    listing = len(lowered) - compiling
    skeletons = {opt.skeleton(program)[0] for program in programs}
    assert compiling <= len(skeletons), (
        f"{compiling} rules lowered for {len(skeletons)} skeletons"
    )
    assert listing == 0, f"{listing} rules lowered reading the source"
    emit(
        f"cold adversarial compile of {COLD_RULES} rules: {compiling} "
        f"lowered for {len(skeletons)} skeletons, {listing} by the listing"
    )


CATCH_ALL_RULES = 200


def _catch_all() -> FilterProgram:
    """A rule that accepts every packet, below the ACL's priority: no
    bucket can hold it apart, so it is merged into every bucket."""
    return FilterProgram(asm("PUSHONE"), priority=5)


def test_catch_all_compile_and_listing_lower_once_per_skeleton(
    monkeypatch, emit
):
    """A cold compile of 200 one-skeleton :func:`_acl_rule` rules and a
    catch-all, whose every bucket is a chain of two entries, plus one
    read of its ``source``, lowers one rule of each of the two
    skeletons.  Lowered 400 + 401 while a chain of several entries
    lowered each of its rules and the listing emitted every chain again.
    Counted, not timed."""
    programs = [
        _acl_rule(1024 + slot, 1000 + slot) for slot in range(CATCH_ALL_RULES)
    ]
    programs.append(_catch_all())
    assert len({opt.skeleton(program)[0] for program in programs}) == 2
    lowered = _counting_lowerings(monkeypatch)
    compiled = compile_ir_set(_entries(programs))
    buckets = compiled._root.buckets
    assert len(buckets) == CATCH_ALL_RULES
    assert all(len(leaf.entries) == 2 for leaf in buckets.values())
    compiled.source
    assert len(lowered) <= 2, (
        f"{len(lowered)} rules lowered compiling and listing "
        f"{CATCH_ALL_RULES} rules and a catch-all"
    )
    assert compiled.classify(_acl_packet(1024 + 7, 1007)) == ((7,), 1)
    assert compiled.classify(_acl_packet(1024 + 7, 1008)) == (
        (CATCH_ALL_RULES,), 2
    )
    emit(
        f"cold compile and listing of {CATCH_ALL_RULES} rules and a "
        f"catch-all: {len(lowered)} lowered"
    )


def test_a_rebind_into_a_chain_of_two_lowers_nothing(monkeypatch, emit):
    """A re-bind of a rule of a known skeleton into a bucket it shares
    with a catch-all rule builds the two-entry chain from the two
    templates: no rule is lowered (2 while a chain of several entries
    lowered each of its rules).  Counted, not timed."""
    programs = [
        _acl_rule(1024 + slot, 1000 + slot) for slot in range(REBIND_RULES)
    ]
    entries = _entries([*programs, _catch_all()])
    compiled = compile_ir_set(entries)
    assert compiled.discriminant == (1, 0xFFFF)  # the serial's word
    lowered = _counting_lowerings(monkeypatch)
    for serial in range(9):
        slot = (serial * 37) % REBIND_RULES
        program = _acl_rule(1024 + slot, 0x4000 + serial)
        entries = [entry for entry in entries if entry.key != slot]
        entries.insert(-1, SetEntry(slot, program, validate(program), False))
        del lowered[:]
        compiled = compile_ir_set(entries, previous=compiled)
        leaf = compiled._root.buckets[(0x4000 + serial) ^ 0x5555]
        assert [entry.key for entry in leaf.entries] == [
            slot, REBIND_RULES
        ]
        assert len(lowered) == 0, (
            f"{len(lowered)} rules lowered re-binding into a chain of two"
        )
        packet = _acl_packet(1024 + slot, 0x4000 + serial)
        assert compiled.classify(packet) == ((slot,), 1)
    emit(f"re-bind into a chain of two: {len(lowered)} rules lowered")


def _folding_rule() -> FilterProgram:
    """A rule whose lowering folds two of its literals (``5 != 7``), so
    that no other rule of its skeleton can share its template, and that
    no bucket can hold apart: it is merged into every bucket."""
    return FilterProgram(asm(
        ("PUSHWORD", 2), ("PUSHLIT", "EQ", 9), ("PUSHLIT", 5),
        ("PUSHLIT", "NEQ", 7), "OR",
    ), priority=5)


def test_a_rule_with_its_own_template_is_lowered_once(monkeypatch, emit):
    """200 one-skeleton :func:`_acl_rule` rules and
    :func:`_folding_rule`, which is in every bucket's chain: a cold
    compile plus one ``source`` read lowers one rule of each skeleton,
    a re-bind of a rule of the known skeleton lowers none, and a
    re-bind of the folding rule lowers it alone, not again for each
    chain it is in (203, 1 and 202 while a rule without a shared
    template was lowered again per chain).  Counted, not timed."""
    programs = [
        _acl_rule(1024 + slot, 1000 + slot) for slot in range(CATCH_ALL_RULES)
    ]
    entries = _entries([*programs, _folding_rule()])
    lowered = _counting_lowerings(monkeypatch)
    compiled = compile_ir_set(entries)
    buckets = compiled._root.buckets
    assert len(buckets) == CATCH_ALL_RULES
    assert all(len(leaf.entries) == 2 for leaf in buckets.values())
    compiled.source
    cold = len(lowered)
    assert cold <= 2, (
        f"{cold} rules lowered compiling and listing {CATCH_ALL_RULES} "
        "rules and a folding rule"
    )
    slot = 7
    program = _acl_rule(1024 + slot, 0x4000)
    entries = [entry for entry in entries if entry.key != slot]
    entries.insert(-1, SetEntry(slot, program, validate(program), False))
    del lowered[:]
    compiled = compile_ir_set(entries, previous=compiled)
    known = len(lowered)
    assert known == 0, f"{known} rules lowered re-binding a known skeleton"
    program = _folding_rule()
    entries[-1] = SetEntry(CATCH_ALL_RULES, program, validate(program), False)
    del lowered[:]
    compiled = compile_ir_set(entries, previous=compiled)
    folding = len(lowered)
    assert folding == 1, f"{folding} rules lowered re-binding the folding rule"
    assert compiled.classify(_acl_packet(1024 + slot, 0x4000)) == ((slot,), 1)
    assert compiled.classify(_acl_packet(1024 + 8, 1009)) == (
        (CATCH_ALL_RULES,), 2
    )
    emit(
        f"{CATCH_ALL_RULES} rules and a folding rule: {cold} lowered "
        f"compiling and listing, {known} re-binding a known skeleton, "
        f"{folding} re-binding the folding rule"
    )


EMITTED_COLD = 2
"""Chains :func:`test_a_chain_is_emitted_once_per_key` may emit for a
cold compile and one ``source`` read, and for a re-bind of the folding
rule: the buckets' one key and the fallback's."""


def test_a_chain_is_emitted_once_per_key(monkeypatch, emit):
    """200 one-skeleton :func:`_acl_rule` rules and
    :func:`_folding_rule`, which is in every bucket's chain of two: a
    cold compile plus one ``source`` read emits one chain for the 200
    buckets and one for the fallback, a re-bind of a rule of the known
    skeleton emits none, and a re-bind of the folding rule emits one per
    key again, not one per bucket (201, 1 and 201 while every chain of
    several entries was emitted each time it was linked).  Counted, not
    timed."""
    emit_bodies = irgen._emit_bodies
    emitted = []

    def counting(lowerings, context):
        emitted.append(context)
        return emit_bodies(lowerings, context)

    monkeypatch.setattr(irgen, "_emit_bodies", counting)
    programs = [
        _acl_rule(1024 + slot, 1000 + slot) for slot in range(CATCH_ALL_RULES)
    ]
    entries = _entries([*programs, _folding_rule()])
    compiled = compile_ir_set(entries)
    assert len(compiled._root.buckets) == CATCH_ALL_RULES
    compiled.source
    cold = len(emitted)
    assert cold <= EMITTED_COLD, (
        f"{cold} chains emitted compiling and listing {CATCH_ALL_RULES} "
        "rules and a folding rule"
    )
    slot = 7
    program = _acl_rule(1024 + slot, 0x4000)
    entries = [entry for entry in entries if entry.key != slot]
    entries.insert(-1, SetEntry(slot, program, validate(program), False))
    del emitted[:]
    compiled = compile_ir_set(entries, previous=compiled)
    known = len(emitted)
    assert known == 0, f"{known} chains emitted re-binding a known skeleton"
    program = _folding_rule()
    entries[-1] = SetEntry(CATCH_ALL_RULES, program, validate(program), False)
    del emitted[:]
    compiled = compile_ir_set(entries, previous=compiled)
    folding = len(emitted)
    assert folding <= EMITTED_COLD, (
        f"{folding} chains emitted re-binding the folding rule"
    )
    assert compiled.classify(_acl_packet(1024 + slot, 0x4000)) == ((slot,), 1)
    assert compiled.classify(_acl_packet(1024 + 8, 1009)) == (
        (CATCH_ALL_RULES,), 2
    )
    emit(
        f"{CATCH_ALL_RULES} rules and a folding rule: {cold} chains emitted "
        f"compiling and listing, {known} re-binding a known skeleton, "
        f"{folding} re-binding the folding rule"
    )


def test_a_rebind_that_moves_the_root_key_lowers_nothing(monkeypatch, emit):
    """A re-bind whose tallies move the root's key regroups the root and
    re-links every bucket, each chain read off its rule's template under
    the new probe: no rule is lowered (each bucket's rule was, before
    templates: 128).  Counted, not timed."""
    programs = [_acl_rule(1024 + slot, slot) for slot in range(REBIND_RULES)]
    entries = [
        SetEntry(slot, program, validate(program), False)
        for slot, program in enumerate(programs)
    ]
    compiled = compile_ir_set(entries)
    # Ports, serials and the serials' mask are each distinct: the tie
    # goes to the lowest word.
    assert compiled.discriminant == (1, 0xFFFF)
    lowered = _counting_lowerings(monkeypatch)
    # Slot 3 takes slot 7's serial: words 1 and 5 lose a value, the
    # port word keeps one per rule.
    program = _acl_rule(1024 + 3, 7)
    entries = [entry for entry in entries if entry.key != 3]
    entries.append(SetEntry(3, program, validate(program), False))
    previous, compiled = compiled, compile_ir_set(entries, previous=compiled)
    assert compiled.discriminant == (6, 0xFFFF)
    kept = {id(link) for link in previous._root.buckets.values()}
    relinked = [
        link for link in compiled._root.buckets.values()
        if id(link) not in kept
    ]
    assert len(relinked) == REBIND_RULES
    assert len(lowered) == 0, f"{len(lowered)} rules lowered"
    for slot, serial in ((0, 0), (3, 7), (7, 7), (REBIND_RULES - 1, 127)):
        packet = _acl_packet(1024 + slot, serial)
        assert compiled.classify(packet) == ((slot,), 1)
    emit(
        f"re-bind moving the root key at {REBIND_RULES} rules: "
        f"{len(relinked)} buckets re-linked, {len(lowered)} rules lowered"
    )


REBIND_READS_SLACK = 2
"""Entries outside the buckets a re-bind changes whose necessary tests
it may read: the detached entry and the attached one."""

_READ: set = set()


class _CountedEntry(SetEntry):
    """A set entry that notes, by key, each read of its necessary tests."""

    def __getattribute__(self, name):
        if name == "necessary":
            _READ.add(object.__getattribute__(self, "key"))
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("rules", [128, 2000])
def test_rebind_reads_the_changed_buckets_not_the_set(
    rules, monkeypatch, emit
):
    """SETFILTER compiled against the set it replaces reads the
    necessary tests of the other entries in the buckets it leaves and
    enters, plus :data:`REBIND_READS_SLACK`, whatever the set's size:
    the root applies the delta to the tallies it keeps instead of
    regrouping every entry (which read all of them: 128 and 2 000).
    Odd re-binds give the rule its neighbour's destination port, even
    ones keep its own; the root probes the serial's word (ties go to
    the lowest word), so the changed buckets are those of the detached
    and attached rules' values there.  Every re-bound rule has a
    skeleton the set knows, so it is read off its template and no rule
    is lowered.  Counted, not timed."""
    entries = [
        _CountedEntry(slot, program, validate(program), False)
        for slot, program in enumerate(
            _acl_rule(1024 + slot, slot) for slot in range(rules)
        )
    ]
    compiled = compile_ir_set(entries)
    lowered = _counting_lowerings(monkeypatch)
    worst = 0
    for serial in range(9):
        slot = (serial * 37) % rules
        entered = 1024 + (slot + serial % 2) % rules
        program = _acl_rule(entered, 0x4000 + serial)  # a never-seen rule
        gone = next(entry for entry in entries if entry.key == slot)
        entries = [entry for entry in entries if entry is not gone]
        attached = _CountedEntry(slot, program, validate(program), False)
        entries.append(attached)
        del lowered[:]
        _READ.clear()
        compiled = compile_ir_set(entries, previous=compiled)
        read = len(_READ)
        key = compiled.discriminant
        buckets = compiled._root.buckets
        changed = {
            value: buckets[value]
            for value in (entry.necessary[key] for entry in (gone, attached))
            if value in buckets
        }
        # The attached entry is in the bucket it enters; the slack
        # already counts it.
        affected = sum(len(bucket.entries) for bucket in changed.values()) - 1
        assert read <= affected + REBIND_READS_SLACK, (
            f"{read} entries read re-binding 1 of {rules} rules into a "
            f"bucket of {affected}"
        )
        worst = max(worst, read - affected)
        assert len(lowered) == 0, f"{len(lowered)} rules lowered re-binding"
    emit(
        f"re-bind at {rules} rules: at most {worst} entries read beyond "
        f"the changed buckets (slack {REBIND_READS_SLACK}), "
        f"{len(lowered)} rules lowered"
    )


def _acl_packet(port: int, serial: int) -> bytes:
    """The packet :func:`_acl_rule` ``(port, serial)`` accepts."""
    return pack_words([0x0A00, serial ^ 0x5555, 0, 0, 6, serial, port])


def count_bytecodes(function, calls) -> int:
    """Bytecodes the interpreter executes inside ``function`` (its own
    frames and every frame they call) while ``calls()`` runs, counted
    with ``sys.settrace`` and ``f_trace_opcodes``.  A trace function
    installed before is put back afterwards."""
    code = function.__code__
    executed = depth = 0

    def local(frame, event, arg):
        nonlocal executed, depth
        if event == "opcode":
            executed += 1
        elif event == "return" and frame.f_code is code:
            depth -= 1
        return local

    def start(frame, event, arg):
        nonlocal depth
        if frame.f_code is code:
            depth += 1
        if not depth:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    outer = sys.gettrace()
    sys.settrace(start)
    try:
        calls()
    finally:
        sys.settrace(outer)
    return executed


def test_deliver_bytecodes_on_a_100_rule_acl(emit):
    """One steady-state ``deliver`` on 100 five-tuple rules runs a
    counted number of bytecodes: the demultiplexer's own tail, the
    dispatch probe, the rule's chain and the port's enqueue.  Every
    rule's packet is offered once to compile the set and once counted,
    and one in five offered packets matches no rule."""
    demux = PacketFilterDemux(engine=Engine.IR, reorder_same_priority=False)
    packets = []
    for slot in range(DELIVER_BYTECODE_RULES):
        port = Port(slot)
        port.bind_filter(_acl_rule(1024 + slot, slot))
        demux.attach(port)
        packets.append(_acl_packet(1024 + slot, slot))
        if slot % 4 == 0:
            packets.append(_acl_packet(1024 + slot, slot ^ 0x100))
    deliver = demux.deliver
    for packet in packets:
        deliver(packet)

    def offer():
        for packet in packets:
            deliver(packet)

    per_deliver = count_bytecodes(PacketFilterDemux.deliver, offer) / len(
        packets
    )
    assert demux.packets_unclaimed == 2 * (DELIVER_BYTECODE_RULES // 4)
    emit(
        f"{per_deliver:.1f} bytecodes per deliver on "
        f"{DELIVER_BYTECODE_RULES} rules "
        f"(ceiling {DELIVER_BYTECODE_CEILING})"
    )
    assert per_deliver <= DELIVER_BYTECODE_CEILING
