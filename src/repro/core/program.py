"""Filter programs: priority + instruction array, and their wire encoding.

A *filter* is "a data structure including an array of 16-bit words"
(section 3.1) bound to a port by ``ioctl``; this module is that data
structure.  The wire form mirrors the ``struct enfilter`` of the paper's
figures 3-8/3-9: a priority word, a length word (in 16-bit words,
counting PUSHLIT literal words), then the instruction words themselves.

Programs contain no branches, so their static structure is fully
analyzable — :mod:`repro.core.validator` exploits that (a section 7
improvement), down to how deep into a packet a filter can look.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .instructions import (
    BinaryOp,
    EncodingError,
    Instruction,
    StackAction,
    decode_instruction_word,
    encode_instruction_word,
    pushword,
)

__all__ = ["FilterProgram", "DEFAULT_PRIORITY", "MAX_PRIORITY", "asm"]

DEFAULT_PRIORITY = 0
MAX_PRIORITY = 255
"""Priorities are small non-negative integers; higher is applied first."""


def asm(*items: int | str | tuple) -> list[Instruction]:
    """Tiny assembler for writing programs the way the paper's figures do.

    Accepts a flat sequence shaped like the C initializers in figures
    3-8/3-9, e.g.::

        asm(
            ("PUSHWORD", 1), ("PUSHLIT", "EQ", 2),   # packet type == PUP
            ("PUSHWORD", 3), ("PUSH00FF", "AND"),    # mask low byte
            ("PUSHZERO", "GT"),
        )

    Each tuple is ``(action[, operator][, literal])`` where action is a
    :class:`StackAction` name or ``("PUSHWORD", n)``; a bare string is an
    action or operator-only instruction (``"AND"`` means ``NOPUSH | AND``).
    Exists mostly for tests and examples; real clients use
    :class:`repro.core.compiler.FilterBuilder`.
    """
    out: list[Instruction] = []
    for item in items:
        if isinstance(item, str):
            item = (item,)
        if not isinstance(item, tuple):
            raise EncodingError(f"asm item {item!r} must be a str or tuple")
        parts = list(item)
        head = parts.pop(0)
        if head == "PUSHWORD":
            action_code = pushword(int(parts.pop(0)))
        elif head in StackAction.__members__:
            action_code = int(StackAction[head])
        elif head in BinaryOp.__members__:
            action_code = int(StackAction.NOPUSH)
            parts.insert(0, head)
        else:
            raise EncodingError(f"unknown asm mnemonic {head!r}")
        operator = BinaryOp.NOP
        if parts and isinstance(parts[0], str):
            operator = BinaryOp[parts.pop(0)]
        literal = None
        if parts:
            literal = int(parts.pop(0))
        if parts:
            raise EncodingError(f"trailing asm operands in {item!r}")
        out.append(Instruction(action_code, operator, literal))
    return out


@dataclass(frozen=True)
class FilterProgram:
    """An immutable filter: a priority and a sequence of instructions.

    Instances compare and hash by value.
    """

    instructions: tuple[Instruction, ...]
    priority: int = DEFAULT_PRIORITY

    def __init__(
        self,
        instructions: Iterable[Instruction],
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        instructions = tuple(instructions)
        for ins in instructions:
            if not isinstance(ins, Instruction):
                raise EncodingError(f"{ins!r} is not an Instruction")
        if not 0 <= priority <= MAX_PRIORITY:
            raise EncodingError(
                f"priority {priority} outside 0..{MAX_PRIORITY}"
            )
        object.__setattr__(self, "instructions", instructions)
        object.__setattr__(self, "priority", priority)

    # -- structural properties -------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @cached_property
    def plan(self) -> tuple:
        """This program as :func:`~repro.core.interpreter.evaluate` and
        the tracer run it, decoded on first use and kept
        (:func:`repro.core.interpreter.decode_plan`) — never at
        construction, so a program only ever compiled pays nothing.  The
        demultiplexer decodes its own copy per binding, at attach."""
        from .interpreter import decode_plan

        return decode_plan(self)

    @cached_property
    def _cleared(self) -> set:
        """The ``(extended, push_result)`` pairs this program has passed
        :func:`~repro.core.validator.validate` for on ``evaluate``'s
        unchecked path, so it is validated once, not per packet."""
        return set()

    @property
    def encoded_length(self) -> int:
        """Length in 16-bit words of the instruction stream (the paper's
        ``struct enfilter`` length field counts literal words too)."""
        return sum(ins.encoded_length for ins in self.instructions)

    # -- wire encoding ----------------------------------------------------

    def encode(self) -> array:
        """Pack to the ``struct enfilter`` wire form.

        Layout: ``[priority, length, word0, word1, ...]`` where *length*
        counts the instruction words (PUSHLIT literals included), exactly
        as in the figure 3-8 initializer ``{ 10, 12, ... }``.
        """
        words = array("H", [self.priority, self.encoded_length])
        for ins in self.instructions:
            words.append(encode_instruction_word(ins))
            if ins.is_pushlit:
                words.append(ins.literal)  # type: ignore[arg-type]
        return words

    @classmethod
    def decode(cls, words: Iterable[int]) -> "FilterProgram":
        """Unpack the wire form produced by :meth:`encode`.

        Raises :class:`EncodingError` on truncation, bad length fields,
        or undefined opcodes — the kernel performs this check once, when
        the filter is bound with ``ioctl``, not per packet.
        """
        words = list(words)
        if len(words) < 2:
            raise EncodingError("filter shorter than its priority+length header")
        priority, length = words[0], words[1]
        body = words[2:]
        if length != len(body):
            raise EncodingError(
                f"length field says {length} words, got {len(body)}"
            )
        instructions: list[Instruction] = []
        i = 0
        while i < len(body):
            word = body[i]
            i += 1
            literal = None
            if (word & 0x3F) == StackAction.PUSHLIT:
                if i >= len(body):
                    raise EncodingError("PUSHLIT at end of program lacks literal")
                literal = body[i]
                i += 1
            instructions.append(decode_instruction_word(word, literal))
        return cls(instructions, priority=priority)

    # -- display ------------------------------------------------------------

    def disassemble(self) -> str:
        """Human-readable listing, one instruction per line."""
        header = f"priority={self.priority} length={self.encoded_length}"
        lines = [header]
        offset = 0
        for ins in self.instructions:
            lines.append(f"  [{offset:2}] {ins}")
            offset += ins.encoded_length
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.disassemble()
