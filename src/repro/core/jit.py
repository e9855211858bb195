"""Filter-to-native compilation — the second section 7 improvement.

"Even more speed could be gained by compiling filters into machine code,
at the cost of greatly increased implementation complexity."

The Python stand-in for "machine code" is a generated Python function
compiled with :func:`compile`/``exec``; the constants the filter
compares against are arguments of the factory that makes it, not source
text.  Because the language has no branches, the evaluation stack has a
statically known shape at every instruction (see
:mod:`repro.core.validator`), so the compiler
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
    the generated code for inspection and tests, headed by a comment
    naming the arguments its factory was called with.
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
    in the paper's sketch (both happen once, at ioctl time).  The
    result carries the report, so a caller that compiles need not
    validate again.
    """
    report = validate(program, level=level, mode=mode)
    source, constants = _generate(program, report, mode)
    namespace = {"_get_word": get_word, "_get_byte": get_byte}
    exec(compile(source, f"<filter priority={program.priority}>", "exec"), namespace)
    return CompiledFilter(
        program=program,
        report=report,
        source=f"# _factory({', '.join(map(repr, constants))})\n{source}",
        _function=namespace["_factory"](*constants),
    )


def _generate(
    program: FilterProgram,
    report: ValidationReport,
    mode: ShortCircuitMode,
) -> tuple[str, list]:
    """Lower ``program`` to the source of ``_factory(*constants)``,
    which returns ``_filter(packet)``, and the constants.

    The program is lowered to :class:`repro.core.ir.FilterIR` (which
    constant-folds and value-numbers on the way) and emitted by
    :func:`repro.core.irgen.emit_ir_body`: one up-front length check
    covers every access provably reachable before an early-TRUE exit,
    and later/deeper accesses get their own inline checks at the exact
    execution point the interpreter would fault at (so "accept before
    touching the deep word" programs behave identically — hypothesis
    found this one).
    """
    constants: list = []
    lines = ["", "    def _filter(packet):"]  # the def line comes last
    indent = "        "
    emit = lines.append

    guarded = report.needs_runtime_bounds_check or report.may_divide_by_zero
    if guarded:
        emit(f"{indent}try:")
        indent += "    "

    emit_ir_body(
        lower_program(program, report, mode), emit, indent,
        terminate=lambda expr: f"return {expr}",
        constants=constants,
    )

    if guarded:
        emit("        except (IndexError, ZeroDivisionError):")
        emit("            return False")
    emit("    return _filter")
    params = ", ".join(f"_k{i}" for i in range(len(constants)))
    lines[0] = f"def _factory({params}):"
    return "\n".join(lines) + "\n", constants
