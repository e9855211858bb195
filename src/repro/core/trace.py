"""Instruction-level filter tracing — the debugger the language lacked.

The original filter author's tools were a disassembly and a frown.
:func:`trace_evaluation` executes a program one instruction at a time
and records, for each step, the instruction, the stack before and
after, and any early termination — so a filter that mysteriously
rejects can be read like a ledger.  The steps are recorded by the
checked interpreter itself, so its semantics are the trace's.

    >>> from repro.core.paper_filters import figure_3_9_pup_socket_35
    >>> report = trace_evaluation(figure_3_9_pup_socket_35(), packet)
    >>> print(report.format())
"""

from __future__ import annotations

from dataclasses import dataclass

from .instructions import Instruction
from .interpreter import (
    FaultCode,
    FilterResult,
    LanguageLevel,
    ShortCircuitMode,
    run_plan,
)
from .program import FilterProgram

__all__ = ["TraceStep", "EvaluationTrace", "trace_evaluation"]


@dataclass(frozen=True)
class TraceStep:
    """One executed instruction and its effect."""

    index: int
    instruction: Instruction
    stack_before: tuple[int, ...]
    stack_after: tuple[int, ...]
    terminated: bool = False       #: a short-circuit ended the program here
    fault: FaultCode = FaultCode.NONE

    def format(self) -> str:
        before = "[" + " ".join(f"{v:#x}" for v in self.stack_before) + "]"
        after = "[" + " ".join(f"{v:#x}" for v in self.stack_after) + "]"
        note = ""
        if self.terminated:
            note = "  << short-circuit return"
        if self.fault is not FaultCode.NONE:
            note = f"  << fault: {self.fault.value}"
        return (
            f"[{self.index:2}] {str(self.instruction):24} "
            f"{before:>24} -> {after}{note}"
        )


@dataclass(frozen=True)
class EvaluationTrace:
    """The whole run: every step plus the final verdict."""

    program: FilterProgram
    packet: bytes
    steps: tuple[TraceStep, ...]
    result: FilterResult

    def format(self) -> str:
        lines = [
            f"packet: {len(self.packet)} bytes",
            f"filter: priority {self.program.priority}, "
            f"{len(self.program)} instructions",
        ]
        lines.extend(step.format() for step in self.steps)
        verdict = "ACCEPT" if self.result.accepted else "REJECT"
        detail = ""
        if self.result.fault is not FaultCode.NONE:
            detail = f" ({self.result.fault.value})"
        lines.append(
            f"=> {verdict}{detail} after "
            f"{self.result.instructions_executed} instructions"
        )
        return "\n".join(lines)


def trace_evaluation(
    program: FilterProgram,
    packet: bytes,
    *,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
    level: LanguageLevel = LanguageLevel.CLASSIC,
) -> EvaluationTrace:
    """Run ``program`` on ``packet``, recording every step.

    One checked run of the interpreter's plan loop records the stack
    before each instruction it executes, so every step — including the
    one that faults or short-circuits — shows exactly what the
    interpreter did.
    """
    stacks: list = []
    result = FilterResult(*run_plan(
        program.plan,
        packet,
        mode is ShortCircuitMode.PUSH_RESULT,
        level is LanguageLevel.EXTENDED,
        True,
        stacks,
    ))
    live, *befores = stacks
    afters = [*befores[1:], tuple(live)]
    last = len(befores) - 1
    steps = tuple(
        TraceStep(
            index=index,
            instruction=program.instructions[index],
            stack_before=before,
            stack_after=after,
            terminated=index == last and result.short_circuited,
            fault=result.fault if index == last else FaultCode.NONE,
        )
        for index, (before, after) in enumerate(zip(befores, afters))
    )
    return EvaluationTrace(
        program=program, packet=packet, steps=steps, result=result
    )
