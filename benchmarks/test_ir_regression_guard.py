"""Guard: re-binding one rule under the IR engine compiles one chain.

The incremental re-bind is pinned as a same-process *ratio* —
re-binding one of 128 never-seen rules against compiling that set cold
— next to the chain cache's hit and miss counts.  The IR passes
themselves are pinned as counts by ``test_compiled_shape_at_100_rules``
(``tests/difftest/test_matrix_smoke.py``), and the per-packet path
by ``test_sim_call_budget.py``'s calls per deliver.
"""

import statistics
import time

from repro.core.compiler import compile_expr, word
from repro.core.irgen import (
    SetEntry,
    chain_cache_clear,
    chain_cache_info,
    compile_ir_set,
)
from repro.core.validator import validate

REBIND_RULES = 128
REBIND_MIN_SPEEDUP = 5.0


def _acl_rule(port: int, serial: int):
    return compile_expr(
        (word(6) == port) & (word(4) == 6) & (word(5) == serial)
        & (word(0) == 0x0A00) & (word(1) == serial ^ 0x5555),
        priority=10,
    )


def _compile_seconds(programs) -> float:
    entries = [
        SetEntry(rank, program, validate(program), False)
        for rank, program in enumerate(programs)
    ]
    start = time.perf_counter()
    compile_ir_set(entries)
    return time.perf_counter() - start


def test_rebind_compiles_one_chain_not_the_set(emit):
    """SETFILTER on one of 128 rules re-links 127 cached chains and
    compiles one: at least 5x faster than compiling the set cold, in
    the same process (measured ~20x; the floor only catches a key that
    stops hitting — a rank or a counter leaking back into chain code)."""
    programs = [_acl_rule(1024 + i, i) for i in range(REBIND_RULES)]
    cold = []
    for _ in range(3):
        chain_cache_clear()
        cold.append(_compile_seconds(programs))
    rebinds = []
    for serial in range(9):
        # The re-bound port moves to the end of its priority class, so
        # every later rank shifts — and the rule has never been seen.
        slot = (serial * 37) % REBIND_RULES
        programs.append(_acl_rule(1024 + slot, 1000 + serial))
        del programs[slot]
        before = chain_cache_info()
        rebinds.append(_compile_seconds(programs))
        after = chain_cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == REBIND_RULES  # 127 + fallback
    ratio = min(cold) / statistics.median(rebinds)
    emit(
        f"cold compile {min(cold) * 1e3:.1f} ms, re-bind "
        f"{statistics.median(rebinds) * 1e3:.2f} ms: {ratio:.1f}x; "
        f"{chain_cache_info()}"
    )
    assert ratio >= REBIND_MIN_SPEEDUP, (
        f"re-binding 1 of {REBIND_RULES} rules is only {ratio:.1f}x faster "
        f"than the cold compile (floor {REBIND_MIN_SPEEDUP}x)"
    )
