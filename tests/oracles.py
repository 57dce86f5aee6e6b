"""Independent reference implementations used only to cross-check the package.

Nothing here imports from bicomplex's computational paths: ranks come from a
fraction-free (Bareiss) elimination, a gcd over Z[i] from a search over
candidate divisors, and the Iwasawa tables are brute-forced from the
structure equation d phi3 = -phi1 ^ phi2 on a bitmask monomial basis.
Keeping these separate is the point; do not "fix" them to reuse the package
internals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt


def bareiss_rank(rows) -> int:
    """Rank by fraction-free Gaussian elimination (two-determinant identity).

    Works over any exact field whose elements support *, -, / and truth
    testing; no pivot normalization, first nonzero pivot, so it shares
    nothing with the package's sparsity-pivoted Gauss-Jordan.
    """
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    prev = None
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                num = m[r][c] * m[i][j] - m[i][c] * m[r][j]
                m[i][j] = num if prev is None else num / prev
            m[i][c] = m[i][c] - m[i][c]  # exact zero of the right type
        prev = m[r][c]
        r += 1
        if r == n_rows:
            break
    return r


def member_of_span(vectors, v) -> bool:
    """Is v in the span of vectors?  Decided purely by rank comparisons."""
    base = [list(w) for w in vectors]
    return bareiss_rank(base) == bareiss_rank(base + [list(v)])


# -- a gcd over Z[i] by search ---------------------------------------------------
#
# A Gaussian integer is a pair (re, im) of ints, its norm re^2 + im^2.


def gaussian_divides(d: tuple[int, int], x: tuple[int, int]) -> bool:
    """Does the nonzero d divide x over Z[i]?  x conj(d) must be a multiple
    of the norm of d in both parts."""
    (dr, di), (xr, xi) = d, x
    n = dr * dr + di * di
    return (xr * dr + xi * di) % n == 0 == (xi * dr - xr * di) % n


def gaussian_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A common divisor of a and b of largest norm, found by trying every
    d with norm at most the least norm of a nonzero one of a and b (every
    divisor of a nonzero x has norm at most that of x); (0, 0) when both
    are zero.  A common divisor of largest norm is a gcd: every common
    divisor divides a gcd, so its norm is at most the gcd's.  Only d with
    re > 0 and im >= 0 are tried, one of each four associates d, i d, -d
    and -i d, which divide the same numbers."""
    bound = min((x[0] ** 2 + x[1] ** 2 for x in (a, b) if x != (0, 0)), default=0)
    best, top = (0, 0), 0
    r = isqrt(bound)
    for dr in range(1, r + 1):
        for di in range(r + 1):
            n = dr * dr + di * di
            if top < n <= bound and gaussian_divides((dr, di), a) and gaussian_divides((dr, di), b):
                best, top = (dr, di), n
    return best


# -- brute-forced Iwasawa tables ------------------------------------------------
#
# Letters are bits 0..5: phi1, phi2, phi3, conj(phi1), conj(phi2), conj(phi3).
# A form is a dict {mask: Fraction}.  d replaces phi3 by -phi1^phi2 and
# conj(phi3) by -conj(phi1)^conj(phi2), with signs from counting set bits.

_P1, _P2, _P3, _B1, _B2, _B3 = (1 << i for i in range(6))
_RULES = {_P3: (Fraction(-1), _P1 | _P2), _B3: (Fraction(-1), _B1 | _B2)}


def _sign_below(mask: int, bit_pos: int) -> int:
    return -1 if bin(mask & ((1 << bit_pos) - 1)).count("1") % 2 else 1


def _insert(mask: int, letters: int):
    """Wedge `letters` into `mask` from the left; None on repetition."""
    if mask & letters:
        return None
    sign = 1
    for pos in range(6):
        if letters & (1 << pos):
            sign *= _sign_below(mask, pos)
    return sign, mask | letters


def _differential(mask: int, barred: bool) -> dict[int, Fraction]:
    """d1 (barred=False) or d2 (barred=True) of a basis monomial.

    Differentiating the letter at position idx contributes the Leibniz sign
    (-1)^idx; the degree-2 image then commutes to the front for free and is
    wedged back in with _insert's sign.
    """
    out: dict[int, Fraction] = {}
    for pos in range(6):
        bit = 1 << pos
        if not mask & bit:
            continue
        rule = _RULES.get(bit)
        if rule is None or (pos >= 3) != barred:
            continue
        coeff, image = rule
        ins = _insert(mask & ~bit, image)
        if ins is None:
            continue
        s, new_mask = ins
        total = coeff * _sign_below(mask, pos) * s
        out[new_mask] = out.get(new_mask, Fraction(0)) + total
    return {k: v for k, v in out.items() if v}


def _basis(p: int, q: int) -> list[int]:
    out = []
    for plain in combinations(range(3), p):
        for bar in combinations(range(3), q):
            mask = 0
            for i in plain:
                mask |= 1 << i
            for j in bar:
                mask |= 1 << (j + 3)
            out.append(mask)
    return sorted(out)


def _block(p: int, q: int, barred: bool):
    """Matrix (list of rows) of d1 or d2 from (p,q), over Fraction."""
    src = _basis(p, q)
    tgt = _basis(p + 1, q) if not barred else _basis(p, q + 1)
    index = {m: i for i, m in enumerate(tgt)}
    rows = [[Fraction(0)] * len(src) for _ in tgt]
    for col, mask in enumerate(src):
        for new_mask, coeff in _differential(mask, barred).items():
            rows[index[new_mask]][col] += coeff
    return rows


def _vstack(a, b):
    if not a:
        return [row[:] for row in b]
    if not b:
        return [row[:] for row in a]
    return [row[:] for row in a] + [row[:] for row in b]


def _matmul(a, b):
    if not a or not b:
        return []
    out = [[Fraction(0)] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for k, v in enumerate(row):
            if v:
                for j, w in enumerate(b[k]):
                    if w:
                        out[i][j] += v * w
    return out


def _rank(rows) -> int:
    rows = [r for r in rows if any(r)]
    return bareiss_rank(rows) if rows else 0


def iwasawa_oracle_tables():
    """(dolbeault, bott_chern, aeppli, betti) dictionaries, brute-forced."""
    from math import comb

    dim = lambda p, q: comb(3, p) * comb(3, q) if 0 <= p <= 3 and 0 <= q <= 3 else 0
    d1 = {(p, q): _block(p, q, False) for p in range(4) for q in range(4) if p < 3}
    d2 = {(p, q): _block(p, q, True) for p in range(4) for q in range(4) if q < 3}

    def rank_at(blocks, p, q):
        rows = blocks.get((p, q))
        return _rank(rows) if rows else 0

    dol = {}
    bc = {}
    aep = {}
    for p in range(4):
        for q in range(4):
            n = dim(p, q)
            dol[(p, q)] = n - rank_at(d2, p, q) - rank_at(d2, p, q - 1)
            stacked = _vstack(d1.get((p, q), []), d2.get((p, q), []))
            z_bc = n - _rank(stacked)
            dd = (
                _matmul(d1[(p - 1, q)], d2[(p - 1, q - 1)])
                if (p - 1, q) in d1 and (p - 1, q - 1) in d2
                else []
            )
            bc[(p, q)] = z_bc - _rank(dd)
            dd_out = (
                _matmul(d1[(p, q + 1)], d2[(p, q)])
                if (p, q + 1) in d1 and (p, q) in d2
                else []
            )
            z_a = n - _rank(dd_out)
            side = []
            if (p - 1, q) in d1:
                side = [list(c) for c in zip(*d1[(p - 1, q)])]
            if (p, q - 1) in d2:
                side += [list(c) for c in zip(*d2[(p, q - 1)])]
            aep[(p, q)] = z_a - _rank(side)

    # total complex per degree
    betti = {}
    spots = [(p, q) for p in range(4) for q in range(4)]
    for k in range(7):
        parts = [pq for pq in spots if sum(pq) == k]
        parts_next = [pq for pq in spots if sum(pq) == k + 1]

        def total_d(src_parts, tgt_parts):
            offs_s = {}
            pos = 0
            for pq in sorted(src_parts):
                offs_s[pq] = pos
                pos += dim(*pq)
            offs_t = {}
            pos_t = 0
            for pq in sorted(tgt_parts):
                offs_t[pq] = pos_t
                pos_t += dim(*pq)
            rows = [[Fraction(0)] * pos for _ in range(pos_t)]
            for (p, q) in src_parts:
                for blocks, tgt in ((d1, (p + 1, q)), (d2, (p, q + 1))):
                    cell = blocks.get((p, q))
                    if cell is None or tgt not in offs_t:
                        continue
                    for i, row in enumerate(cell):
                        for j, v in enumerate(row):
                            if v:
                                rows[offs_t[tgt] + i][offs_s[(p, q)] + j] += v
            return rows

        d_k = total_d(parts, parts_next)
        parts_prev = [pq for pq in spots if sum(pq) == k - 1]
        d_prev = total_d(parts_prev, parts) if parts_prev else []
        betti[k] = sum(dim(*pq) for pq in parts) - _rank(d_k) - _rank(d_prev)

    drop_zeros = lambda d: {k: v for k, v in d.items() if v}
    return drop_zeros(dol), drop_zeros(bc), drop_zeros(aep), drop_zeros(betti)
