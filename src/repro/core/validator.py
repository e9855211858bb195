"""Bind-time filter validation — the first section 7 improvement.

"During evaluation of each filter instruction, the interpreter verifies
that the instruction is valid, that it doesn't overflow or underflow the
evaluation stack, and that it doesn't refer to a field outside the
current packet.  Since the filter language does not include branching
instructions, all these tests can be performed ahead of time (except for
indirect-push instructions); this might significantly speed filter
evaluation."

Because the language is branch-free, stack depth after each instruction
is a *single* statically-known integer, so overflow/underflow are decided
exactly, not conservatively.  Direct ``PUSHWORD+n`` bounds reduce to a
minimum packet length the demultiplexer can test once per packet; only
extension indirect pushes need per-evaluation bounds checks.

A program that passes :func:`validate` is safe to run with
``evaluate(..., checked=False)`` on any packet at least
``report.min_packet_bytes`` long; the only faults it can then raise are
the irreducible dynamic ones the report declares
(``needs_runtime_bounds_check`` / ``may_divide_by_zero``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .instructions import (
    CLASSIC_OPERATORS,
    EXTENDED_ACTIONS,
    EXTENDED_OPERATORS,
    PUSHWORD_BASE,
    SHORT_CIRCUIT_OPERATORS,
    BinaryOp,
    StackAction,
)
from .interpreter import DEFAULT_STACK_DEPTH, LanguageLevel, ShortCircuitMode
from .program import FilterProgram

__all__ = ["ValidationError", "ValidationReport", "validate"]


class ValidationError(ValueError):
    """Raised when a filter must be rejected at bind time.

    The kernel raises this from the ``BIOCSETF``-style ioctl, so a bad
    filter is an error returned to the caller once — never a silent
    per-packet rejection.
    """


@dataclass(frozen=True)
class ValidationReport:
    """Everything bind-time analysis learns about a program."""

    max_stack_depth: int
    """Deepest the evaluation stack gets on the non-terminating path."""

    min_packet_bytes: int
    """Sound pre-check: packets shorter than this are *guaranteed* to be
    rejected, so the demux may skip evaluation entirely.  Only direct
    PUSHWORDs reachable before any possible early-TRUE exit (COR/CNAND)
    count — a program that can accept before touching its deepest word
    must not be pre-rejected on that word's account."""

    max_packet_bytes_touched: int
    """Shortest packet length under which *no* direct PUSHWORD can
    fault anywhere in the program (the full figure for fast paths)."""

    uses_extensions: bool
    """Program uses section 7 extension actions or operators."""

    needs_runtime_bounds_check: bool
    """Program contains indirect pushes, whose bounds cannot be hoisted."""

    may_divide_by_zero: bool
    """Program contains DIV, whose operand check cannot be hoisted."""

    uses_short_circuit: bool
    """Program contains COR/CAND/CNOR/CNAND."""


def _rejected(position: int, ins, reason: str) -> ValidationError:
    """The error rejecting instruction ``position``: its text is built
    only for a program that fails, never on the path that passes."""
    return ValidationError(f"instruction {position} ({ins}): {reason}")


def validate(
    program: FilterProgram,
    *,
    level: LanguageLevel = LanguageLevel.CLASSIC,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
    max_stack: int = DEFAULT_STACK_DEPTH,
) -> ValidationReport:
    """Statically check ``program``; raise :class:`ValidationError` or
    return the :class:`ValidationReport` the fast path relies on.

    One pass over the instructions.  Nothing is kept: the caller holds
    the report for as long as it holds the program (the demultiplexer
    keeps it on the port's binding).
    """
    depth = 0
    max_depth = 0
    max_word_index = -1        # words reachable before an early-TRUE exit
    max_word_anywhere = -1     # words reachable anywhere in the program
    early_true_possible = False
    uses_extensions = False
    needs_runtime_bounds = False
    may_div_zero = False
    uses_short_circuit = False

    for position, ins in enumerate(program.instructions):
        action = ins.action_code

        # --- stack action effects ---
        if action == StackAction.NOPUSH:
            pass
        elif action in EXTENDED_ACTIONS:
            if level is not LanguageLevel.EXTENDED:
                raise _rejected(
                    position, ins,
                    "indirect push requires LanguageLevel.EXTENDED",
                )
            uses_extensions = True
            needs_runtime_bounds = True
            if depth < 1:
                raise _rejected(
                    position, ins, "indirect push underflows stack"
                )
            # net effect 0: pops the index, pushes the field
        else:
            if action >= PUSHWORD_BASE:
                index = action - PUSHWORD_BASE
                max_word_anywhere = max(max_word_anywhere, index)
                if not early_true_possible:
                    max_word_index = max(max_word_index, index)
            depth += 1
            if depth > max_stack:
                raise _rejected(
                    position, ins,
                    f"stack depth {depth} exceeds limit {max_stack}",
                )

        max_depth = max(max_depth, depth)

        # --- operator effects ---
        op = ins.operator
        if op == BinaryOp.NOP:
            continue
        if op in EXTENDED_OPERATORS:
            if level is not LanguageLevel.EXTENDED:
                raise _rejected(
                    position, ins,
                    f"operator {op.name} requires LanguageLevel.EXTENDED",
                )
            uses_extensions = True
            if op == BinaryOp.DIV:
                may_div_zero = True
        elif op not in CLASSIC_OPERATORS:
            raise _rejected(position, ins, f"unknown operator {op!r}")
        if depth < 2:
            raise _rejected(
                position, ins,
                f"operator {op.name} underflows stack (depth {depth})",
            )
        if op in SHORT_CIRCUIT_OPERATORS:
            uses_short_circuit = True
            if op in (BinaryOp.COR, BinaryOp.CNAND):
                # From here on the program may already have accepted, so
                # later packet accesses must not feed the pre-check.
                early_true_possible = True
            depth -= 2 if mode is ShortCircuitMode.NO_PUSH else 1
        else:
            depth -= 1

    if depth < 1:
        raise ValidationError(
            "program can end with an empty stack (no predicate value)"
        )

    # Word n is readable when the packet covers its first byte (2n),
    # because an odd tail byte is zero-padded into a full word.
    min_packet_bytes = 0 if max_word_index < 0 else 2 * max_word_index + 1
    max_touched = 0 if max_word_anywhere < 0 else 2 * max_word_anywhere + 1

    return ValidationReport(
        max_stack_depth=max_depth,
        min_packet_bytes=min_packet_bytes,
        max_packet_bytes_touched=max_touched,
        uses_extensions=uses_extensions,
        needs_runtime_bounds_check=needs_runtime_bounds,
        may_divide_by_zero=may_div_zero,
        uses_short_circuit=uses_short_circuit,
    )
