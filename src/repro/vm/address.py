"""Sv39-style virtual address arithmetic.

39-bit virtual addresses, 4 KB pages, three translation levels of 9 bits
each — the scheme Ariane implements and SMP Linux uses on RV64.
"""

from __future__ import annotations

from typing import Tuple

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
LEVELS = 3
VPN_BITS = 9
ENTRIES_PER_TABLE = 1 << VPN_BITS
VA_BITS = PAGE_SHIFT + LEVELS * VPN_BITS  # 39


def page_base(vaddr: int) -> int:
    return vaddr & ~(PAGE_SIZE - 1)


def page_offset(vaddr: int) -> int:
    return vaddr & (PAGE_SIZE - 1)


def page_round_up(nbytes: int) -> int:
    """Round a size up to a whole number of pages."""
    return (nbytes + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def vpn_indices(vaddr: int) -> Tuple[int, int, int]:
    """(vpn2, vpn1, vpn0): table indices from root to leaf."""
    if not (0 <= vaddr < (1 << VA_BITS)):
        raise ValueError(f"address {vaddr:#x} outside the {VA_BITS}-bit space")
    vpn = vaddr >> PAGE_SHIFT
    return (
        (vpn >> (2 * VPN_BITS)) & (ENTRIES_PER_TABLE - 1),
        (vpn >> VPN_BITS) & (ENTRIES_PER_TABLE - 1),
        vpn & (ENTRIES_PER_TABLE - 1),
    )
