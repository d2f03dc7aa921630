"""Assembler: turns a symbolic instruction list into an addressed program.

Accepts a sequence whose items are :class:`~repro.cpu.isa.Instruction`
objects or ``(label, instruction)`` pairs (a bare string item is also
accepted as a label for the *next* instruction). Lays instructions out at
consecutive addresses using their architected lengths and resolves branch
targets, enabling the constrained-transaction static checks (forward
branches, 256-byte instruction-text window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import AssemblyError
from .isa import Instruction

Item = Union[Instruction, Tuple[str, Instruction], str]


@dataclass(unsafe_hash=True)
class Located:
    """An instruction placed at an address (a plain value record, like
    :class:`~repro.cpu.isa.Instruction`)."""

    address: int
    instruction: Instruction

    @property
    def end_address(self) -> int:
        return self.address + self.instruction.length


class Program:
    """An assembled program."""

    def __init__(self, located: List[Located], labels: Dict[str, int],
                 base: int) -> None:
        self._located = located
        self.labels = labels
        self.base = base
        self._by_address: Dict[int, Located] = {}
        self._index_of_address: Dict[int, int] = {}
        for i, loc in enumerate(located):
            address = loc.address
            self._by_address[address] = loc
            self._index_of_address[address] = i
            target = loc.instruction.target
            if target is not None and target not in labels:
                raise AssemblyError(
                    f"undefined label {target!r} at 0x{address:x}"
                )

    # -- execution support --------------------------------------------------

    @property
    def entry(self) -> int:
        return self._located[0].address if self._located else self.base

    @property
    def end(self) -> int:
        return self._located[-1].end_address if self._located else self.base

    def at(self, address: int) -> Optional[Located]:
        return self._by_address.get(address)

    def next_address(self, address: int) -> int:
        loc = self._by_address.get(address)
        if loc is None:
            raise AssemblyError(f"no instruction at 0x{address:x}")
        index = self._index_of_address[address] + 1
        if index < len(self._located):
            return self._located[index].address
        return loc.end_address  # falls off the end: interpreter halts

    def target_address(self, insn: Instruction) -> int:
        if insn.target is None:
            raise AssemblyError(f"{insn.mnemonic} has no branch target")
        return self.labels[insn.target]

    def __iter__(self):
        return iter(self._located)

    def __len__(self) -> int:
        return len(self._located)

    def slice(self, start_label: str, end_label: str) -> List[Located]:
        """Instructions in [start_label, end_label) — for static checks."""
        start = self.labels[start_label]
        end = self.labels[end_label]
        return [loc for loc in self._located if start <= loc.address < end]


def assemble(items: Sequence[Item], base: int = 0x1000) -> Program:
    """Assemble ``items`` at ``base``.

    Labels may appear as a bare string (labelling the next instruction) or
    bundled as ``(label, instruction)``.
    """
    located: List[Located] = []
    labels: Dict[str, int] = {}
    pending: List[str] = []
    address = base

    def define(label: str, at: int) -> None:
        if label in labels:
            raise AssemblyError(f"duplicate label {label!r}")
        labels[label] = at

    for item in items:
        # Bare instructions first: they are the overwhelmingly common item.
        if isinstance(item, Instruction):
            insn = item
        elif isinstance(item, str):
            pending.append(item)
            continue
        elif isinstance(item, tuple):
            label, insn = item
            pending.append(label)
            if not isinstance(insn, Instruction):
                raise AssemblyError(f"not an instruction: {insn!r}")
        else:
            raise AssemblyError(f"not an instruction: {item!r}")
        if pending:
            for label in pending:
                define(label, address)
            pending.clear()
        located.append(Located(address, insn))
        address += insn.length

    for label in pending:  # trailing labels point past the end
        define(label, address)

    return Program(located, labels, base)
