"""Guard: the records built once per packet or per syscall are slotted.

A frozen dataclass's generated ``__init__`` makes one
``object.__setattr__`` call per field, several times a slotted one's
cost, and neither ``sys.setprofile`` (so the call-budget bench) nor a
``pstats`` table (every generated ``__init__`` shares one row) shows
it.  So the rule is checked on the classes themselves: each defines
``__slots__``, has no instance ``__dict__``, and is not frozen.  Values
that are hashed or shared — ``FilterProgram``, ``Instruction``,
``DeliveryReport`` — stay frozen and are not listed here.
"""

import pytest

from repro.core.interpreter import FilterResult
from repro.core.port import DeliveredPacket
from repro.sim import process

SYSCALLS = [
    cls
    for cls in vars(process).values()
    if isinstance(cls, type)
    and issubclass(cls, process.Syscall)
    and cls is not process.Syscall
]
RECORDS = [DeliveredPacket, FilterResult, *SYSCALLS]


def test_all_ten_syscall_requests_are_found():
    assert len(SYSCALLS) == 10


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_slotted_and_not_frozen(record):
    assert "__slots__" in vars(record)
    assert record.__dictoffset__ == 0, "an instance __dict__ came back"
    assert not record.__dataclass_params__.frozen
