"""Instruction set and 16-bit encoding of the filter language (figure 3-6).

Each filter instruction is one 16-bit word with two fields::

        10 bits                 6 bits
    +------------------------+--------------+
    |    Binary Operator     | Stack Action |
    +------------------------+--------------+

followed, only when the stack action is ``PUSHLIT``, by one literal
constant word.  The paper gives these field widths (figure 3-6) but not
the numeric opcode assignments of the DEC/CMU implementation, so this
module defines and documents its own stable encoding:

* stack actions ``NOPUSH..PUSH00FF`` occupy action codes 0..6;
* ``PUSHWORD+n`` is action code ``16 + n`` for ``0 <= n <= 47``, which
  exactly fills the remainder of the 6-bit field — the same 48-word
  reach the historical 6-bit encodings had;
* binary operators are numbered 0..13 for the figure 3-6 set, with the
  section 7 extension arithmetic placed at 16+ (see
  :mod:`repro.core.extensions` for the semantics and the opt-in gate).

The instruction *execution order* is: the stack action runs first (it may
push one word), then the binary operator runs (it may pop two words and
push one).  This matches the paper's examples — ``PUSHLIT | EQ, 2`` pushes
the literal 2 and then compares it with the previously pushed word.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "StackAction",
    "BinaryOp",
    "PUSHWORD_BASE",
    "PUSHWORD_MAX_INDEX",
    "ACTION_FIELD_BITS",
    "OPERATOR_FIELD_BITS",
    "Instruction",
    "pushword",
    "encode_instruction_word",
    "decode_instruction_word",
    "EncodingError",
    "TRUE",
    "FALSE",
]

ACTION_FIELD_BITS = 6
OPERATOR_FIELD_BITS = 10
_ACTION_MASK = (1 << ACTION_FIELD_BITS) - 1

PUSHWORD_BASE = 16
"""Stack-action code of ``PUSHWORD+0``."""

PUSHWORD_MAX_INDEX = _ACTION_MASK - PUSHWORD_BASE
"""Largest packet word index addressable by ``PUSHWORD+n`` (47)."""

TRUE = 1
"""The word the language pushes for a true comparison."""

FALSE = 0
"""The word the language pushes for a false comparison."""


class StackAction(enum.IntEnum):
    """The stack-action field values of figure 3-6.

    ``PUSHWORD+n`` is not a member here — it is the open-ended family of
    action codes ``PUSHWORD_BASE + n``; see :func:`pushword` and
    :attr:`Instruction.push_index`.
    """

    NOPUSH = 0      #: no push; the instruction is pure binary operation
    PUSHLIT = 1     #: push the literal constant in the following word
    PUSHZERO = 2    #: push constant 0
    PUSHONE = 3     #: push constant 1
    PUSHFFFF = 4    #: push constant 0xFFFF
    PUSHFF00 = 5    #: push constant 0xFF00
    PUSH00FF = 6    #: push constant 0x00FF
    # --- section 7 extensions (LanguageLevel.EXTENDED only) ---
    PUSHIND = 7     #: pop a word index, push that packet word ("indirect push")
    PUSHBYTEIND = 8  #: pop a byte index, push that byte zero-extended
    # 9..15 reserved; 16..63 are PUSHWORD+n.


_RESERVED_ACTIONS = range(StackAction.PUSHBYTEIND + 1, PUSHWORD_BASE)


#: Stack actions that push a fixed constant, and the constant they push.
CONSTANT_ACTIONS: dict[StackAction, int] = {
    StackAction.PUSHZERO: 0x0000,
    StackAction.PUSHONE: 0x0001,
    StackAction.PUSHFFFF: 0xFFFF,
    StackAction.PUSHFF00: 0xFF00,
    StackAction.PUSH00FF: 0x00FF,
}


class BinaryOp(enum.IntEnum):
    """The binary-operator field values of figure 3-6 (plus extensions).

    All operators except ``NOP`` pop two words — the top of stack ``T1``
    and the word below it ``T2`` — and push one result ``R``.  Comparison
    operators compare ``T2 <op> T1`` and push 1/0.  Logical operators
    treat nonzero as true.  The four short-circuit operators evaluate
    ``R := (T1 == T2)`` and may terminate the whole program early.
    """

    NOP = 0     #: no effect on the stack
    EQ = 1      #: R := T2 == T1
    NEQ = 2     #: R := T2 != T1
    LT = 3      #: R := T2 <  T1
    LE = 4      #: R := T2 <= T1
    GT = 5      #: R := T2 >  T1
    GE = 6      #: R := T2 >= T1
    AND = 7     #: R := T2 & T1 (bitwise; doubles as logical AND)
    OR = 8      #: R := T2 | T1
    XOR = 9     #: R := T2 ^ T1
    COR = 10    #: R := T1 == T2; return TRUE now if R is true
    CAND = 11   #: R := T1 == T2; return FALSE now if R is false
    CNOR = 12   #: R := T1 == T2; return FALSE now if R is true
    CNAND = 13  #: R := T1 == T2; return TRUE now if R is false
    # --- section 7 extensions (LanguageLevel.EXTENDED only) ---
    ADD = 16    #: R := (T2 + T1) mod 2^16
    SUB = 17    #: R := (T2 - T1) mod 2^16
    MUL = 18    #: R := (T2 * T1) mod 2^16
    DIV = 19    #: R := T2 // T1 (T1 == 0 is a runtime fault)
    LSH = 20    #: R := (T2 << T1) mod 2^16
    RSH = 21    #: R := T2 >> T1


#: Operators in the original figure 3-6 language (LanguageLevel.CLASSIC).
CLASSIC_OPERATORS = frozenset(
    {
        BinaryOp.NOP,
        BinaryOp.EQ,
        BinaryOp.NEQ,
        BinaryOp.LT,
        BinaryOp.LE,
        BinaryOp.GT,
        BinaryOp.GE,
        BinaryOp.AND,
        BinaryOp.OR,
        BinaryOp.XOR,
        BinaryOp.COR,
        BinaryOp.CAND,
        BinaryOp.CNOR,
        BinaryOp.CNAND,
    }
)

#: The four short-circuit operators of figure 3-6.
SHORT_CIRCUIT_OPERATORS = frozenset(
    {BinaryOp.COR, BinaryOp.CAND, BinaryOp.CNOR, BinaryOp.CNAND}
)

#: Section 7 extension arithmetic (rejected at LanguageLevel.CLASSIC).
EXTENDED_OPERATORS = frozenset(
    {BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.DIV,
     BinaryOp.LSH, BinaryOp.RSH}
)

#: Section 7 extension stack actions (rejected at LanguageLevel.CLASSIC).
EXTENDED_ACTIONS = frozenset(
    {StackAction.PUSHIND, StackAction.PUSHBYTEIND}
)


class EncodingError(ValueError):
    """An instruction or program cannot be encoded/decoded as 16-bit words."""


@dataclass(frozen=True)
class Instruction:
    """One decoded filter instruction.

    ``action_code`` is the raw 6-bit stack-action field; for
    ``PUSHWORD+n`` it is ``PUSHWORD_BASE + n``.  ``literal`` must be
    present exactly when the action is ``PUSHLIT``.
    """

    action_code: int
    operator: BinaryOp = BinaryOp.NOP
    literal: int | None = None

    def __post_init__(self) -> None:
        # The one boundary every program crosses, decoded or built in
        # user code: what gets past it is a well-formed instruction, so
        # no engine ever meets a reserved code or a foreign operator.
        code = self.action_code
        if not isinstance(code, int) or not 0 <= code <= _ACTION_MASK:
            raise EncodingError(
                f"stack action code {code!r} outside 6-bit field"
            )
        if code in _RESERVED_ACTIONS:
            raise EncodingError(f"reserved stack action code {code}")
        if type(self.operator) is not BinaryOp:
            try:
                operator = BinaryOp(self.operator)
            except (TypeError, ValueError):
                raise EncodingError(
                    f"unknown binary operator code {self.operator!r}"
                ) from None
            object.__setattr__(self, "operator", operator)
        if self.is_pushlit:
            if self.literal is None:
                raise EncodingError("PUSHLIT instruction requires a literal")
            if not isinstance(self.literal, int) or not (
                0 <= self.literal <= 0xFFFF
            ):
                raise EncodingError(
                    f"literal {self.literal!r} does not fit in 16 bits"
                )
        elif self.literal is not None:
            raise EncodingError(
                "literal given but stack action is not PUSHLIT"
            )

    # -- classification -------------------------------------------------

    @property
    def is_pushlit(self) -> bool:
        return self.action_code == StackAction.PUSHLIT

    @property
    def is_pushword(self) -> bool:
        return self.action_code >= PUSHWORD_BASE

    @property
    def push_index(self) -> int | None:
        """Packet word index pushed, for ``PUSHWORD+n``; else ``None``."""
        if self.is_pushword:
            return self.action_code - PUSHWORD_BASE
        return None

    @property
    def is_indirect(self) -> bool:
        """True for the extension indirect pushes (pop index, push field)."""
        return self.action_code in (StackAction.PUSHIND, StackAction.PUSHBYTEIND)

    @property
    def pushes(self) -> bool:
        """True when the stack action leaves one *new* word on the stack.

        Indirect pushes pop their index first, so their net stack effect
        is zero; this property reports the net growth contributed by the
        action (1 for plain pushes, 0 for NOPUSH and the indirect family).
        """
        return self.action_code != StackAction.NOPUSH and not self.is_indirect

    @property
    def pops(self) -> bool:
        """True when the binary operator pops two words (all but NOP)."""
        return self.operator != BinaryOp.NOP

    @property
    def encoded_length(self) -> int:
        """Number of 16-bit words this instruction occupies (1 or 2)."""
        return 2 if self.is_pushlit else 1

    # -- display ---------------------------------------------------------

    def action_name(self) -> str:
        if self.is_pushword:
            return f"PUSHWORD+{self.push_index}"
        return StackAction(self.action_code).name

    def __str__(self) -> str:
        parts = [self.action_name()]
        if self.operator != BinaryOp.NOP:
            parts.append(f"| {self.operator.name}")
        if self.literal is not None:
            parts.append(f", {self.literal}")
        return " ".join(parts)


def pushword(index: int) -> int:
    """Return the stack-action code for ``PUSHWORD+index``.

    Mirrors the C idiom ``ENF_PUSHWORD + n`` in the original header; kept
    as a function so the 6-bit field limit is enforced at build time.
    """
    if not 0 <= index <= PUSHWORD_MAX_INDEX:
        raise EncodingError(
            f"PUSHWORD index {index} outside 0..{PUSHWORD_MAX_INDEX}"
        )
    return PUSHWORD_BASE + index


def encode_instruction_word(instruction: Instruction) -> int:
    """Pack the action/operator fields into the 16-bit instruction word.

    The PUSHLIT literal, when present, is a *separate* following word and
    is handled by :meth:`repro.core.program.FilterProgram.encode`.
    """
    return (instruction.operator << ACTION_FIELD_BITS) | instruction.action_code


def decode_instruction_word(word: int, literal: int | None = None) -> Instruction:
    """Unpack a 16-bit instruction word (plus its literal, if PUSHLIT).

    Raises :class:`EncodingError` for reserved stack-action codes and
    operator codes outside the defined set — :class:`Instruction`
    refuses both, so the kernel turns such words away when the filter
    is bound, never at packet time.
    """
    if not 0 <= word <= 0xFFFF:
        raise EncodingError(f"instruction word {word:#x} is not 16 bits")
    action_code = word & _ACTION_MASK
    if action_code != StackAction.PUSHLIT:
        literal = None
    return Instruction(action_code, word >> ACTION_FIELD_BITS, literal)
