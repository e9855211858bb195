"""Filter-to-native compilation — the second section 7 improvement.

"Even more speed could be gained by compiling filters into machine code,
at the cost of greatly increased implementation complexity."

The Python stand-in for "machine code" is a generated Python function
compiled with :func:`compile`/``exec``.  Because the language has no
branches, the evaluation stack has a statically known shape at every
instruction (see :mod:`repro.core.validator`), so the compiler
*registerizes* the stack: every stack slot becomes a local variable, and
the interpreter's per-instruction dispatch, stack manipulation and
validity checks all disappear.  Short-circuit operators become early
``return`` statements, and the value they would push on the continue
path is a compile-time constant (COR/CNOR continue only when the
comparison was false; CAND/CNAND only when true), so it is constant-folded.

Semantic equivalence with :func:`repro.core.interpreter.evaluate` on the
accept/reject decision is enforced by property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .interpreter import LanguageLevel, ShortCircuitMode
from .ir import lower_program
from .irgen import emit_ir_body
from .program import FilterProgram
from .validator import ValidationReport, validate
from .words import get_byte, get_word

__all__ = ["CompiledFilter", "compile_filter"]


@dataclass(frozen=True)
class CompiledFilter:
    """A filter program lowered to a Python function.

    ``accepts(packet)`` returns the same accept/reject decision the
    checked interpreter would (runtime faults reject).  ``source`` keeps
    the generated code for inspection and tests.
    """

    program: FilterProgram
    report: ValidationReport
    source: str
    _function: object

    def accepts(self, packet: bytes) -> bool:
        return self._function(packet)  # type: ignore[operator]

    def __call__(self, packet: bytes) -> bool:
        return self.accepts(packet)


def compile_filter(
    program: FilterProgram,
    *,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
    level: LanguageLevel = LanguageLevel.CLASSIC,
) -> CompiledFilter:
    """Validate ``program`` and lower it to a Python function.

    Raises :class:`repro.core.validator.ValidationError` for programs the
    kernel would refuse to bind — compilation implies validation, just as
    in the paper's sketch (both happen once, at ioctl time).

    Memoized on (program, mode, level): programs hash by value and the
    compiled artifact is immutable, so rebinding the same filter — or an
    ACL-scale set shared by several demultiplexers — pays one
    ``compile``/``exec`` total, not one per bind.
    """
    return _compile_filter_cached(program, mode, level)


@lru_cache(maxsize=16384)
def _compile_filter_cached(
    program: FilterProgram,
    mode: ShortCircuitMode,
    level: LanguageLevel,
) -> CompiledFilter:
    report = validate(program, level=level, mode=mode)
    source = _generate(program, report, mode)
    namespace = {"_get_word": get_word, "_get_byte": get_byte}
    exec(compile(source, f"<filter priority={program.priority}>", "exec"), namespace)
    return CompiledFilter(
        program=program,
        report=report,
        source=source,
        _function=namespace["_filter"],
    )


def _generate(
    program: FilterProgram,
    report: ValidationReport,
    mode: ShortCircuitMode,
) -> str:
    """Lower ``program`` to the source of ``_filter(packet)``.

    The program is lowered to :class:`repro.core.ir.FilterIR` (which
    constant-folds and value-numbers on the way) and emitted by
    :func:`repro.core.irgen.emit_ir_body`: one up-front length check
    covers every access provably reachable before an early-TRUE exit,
    and later/deeper accesses get their own inline checks at the exact
    execution point the interpreter would fault at (so "accept before
    touching the deep word" programs behave identically — hypothesis
    found this one).
    """
    lines = ["def _filter(packet):"]
    indent = "    "
    emit = lines.append

    guarded = report.needs_runtime_bounds_check or report.may_divide_by_zero
    if guarded:
        emit(f"{indent}try:")
        indent += "    "

    emit_ir_body(
        lower_program(program, report, mode), emit, indent,
        terminate=lambda expr: f"return {expr}",
    )

    if guarded:
        emit("    except (IndexError, ZeroDivisionError):")
        emit("        return False")
    return "\n".join(lines) + "\n"
