"""The KMP string-search kernel in the tiny ISA.

The kernel documents its calling convention (which registers hold inputs
and outputs, where data lives in memory); :func:`load_words` stages its
failure table into a :class:`~repro.isa.machine.FlatMemory`.  It is the
inner loop of the paper's KMP micro-benchmark, so the timing model can be
driven by a genuine instruction stream (``examples/isa_on_tcg.py``), and
it cross-checks the Python KMP in :mod:`repro.workloads.kmp`.
"""

from __future__ import annotations

from typing import Iterable, List

from .assembler import Program, assemble
from .machine import FlatMemory

__all__ = ["load_words", "kmp_search_program", "kmp_failure_table"]

WORD = 8  # the failure table holds 64-bit words


def load_words(memory: FlatMemory, addr: int, values: Iterable[int]) -> int:
    """Store ``values`` as consecutive 64-bit words; returns bytes written."""
    count = 0
    for i, value in enumerate(values):
        memory.write(addr + i * WORD, value & ((1 << 64) - 1), WORD)
        count += 1
    return count * WORD


def kmp_failure_table(pattern: bytes) -> List[int]:
    """Classic KMP failure function, computed host-side (the paper's
    runtime also prepares it once per pattern)."""
    fail = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k > 0 and pattern[i] != pattern[k]:
            k = fail[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        fail[i] = k
    return fail


def kmp_search_program() -> Program:
    """KMP scan loop.

    Inputs: ``r1``=text, ``r2``=text len, ``r3``=pattern, ``r4``=pattern
    len, ``r5``=failure table (64-bit words).  Output: ``r10`` = match
    count.  This is the paper's KMP micro-benchmark inner loop: byte loads
    dominate, which is why its access granularity is tiny (Fig 8).
    """
    return assemble(
        """
        # r6 = i (text idx), r7 = k (pattern idx), r10 = matches
        addi r6, r0, 0
        addi r7, r0, 0
        addi r10, r0, 0
    scan:
        bge  r6, r2, done
        add  r8, r1, r6
        lb   r8, 0(r8)          # text[i]
        add  r9, r3, r7
        lb   r9, 0(r9)          # pattern[k]
        beq  r8, r9, matched
        beq  r7, r0, advance    # k == 0: move i
        addi r7, r7, -1
        slli r11, r7, 3
        add  r11, r11, r5
        ld   r7, 0(r11)         # k = fail[k-1]
        jal  r0, scan
    matched:
        addi r7, r7, 1
        addi r6, r6, 1
        blt  r7, r4, scan
        addi r10, r10, 1        # full match
        addi r7, r7, -1
        slli r11, r7, 3
        add  r11, r11, r5
        ld   r7, 0(r11)         # k = fail[m-1]
        jal  r0, scan
    advance:
        addi r6, r6, 1
        jal  r0, scan
    done:
        halt
        """,
        name="kmp_search",
    )
