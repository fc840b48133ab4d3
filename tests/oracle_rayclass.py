"""Relation-lattice oracle for small ray class groups, used by the tests.

Builds Cl_m from scratch: prime ideals below a bound generate, relations come
from elements congruent to 1 mod m with smooth norm, and the quotient's
structure falls out of a Smith normal form. Verification cross-checks both
the group order and the ell-rank against the library.

Caveat: the construction assumes the prime ideals below qmax generate the
full ray class group; when they only generate a proper subgroup the reported
order is too small. The tests therefore only trust runs whose order matches
the ray class number formula, which the library computes independently.

`ideal_to_form` inverts the library's form-to-ideal map, so the tests can
check ideal arithmetic against form composition.
"""

from __future__ import annotations

from twistsel.intmath import factorint, kronecker
from twistsel.quadforms import BQF
from twistsel.rayclass import Ideal, QuadOrder, _splitting_in_field


def ideal_to_form(I: Ideal) -> BQF:
    """Reduced form (a, -(2b + t), c) of the ideal [a, b + omega], t the trace of omega."""
    o = I.order
    if o.d % 4 == 1:
        b = -(2 * I.b + 1)
    else:
        b = -2 * I.b
    c = (b * b - o.D) // (4 * I.a)
    return BQF(I.a, b, c).reduced()


def smith_invariants(rows, ncols):
    """Invariant factors (> 1) of Z^ncols / row lattice, or None if not finite."""
    M = [r[:] for r in rows]
    iv = []
    r = c = 0
    while r < len(M) and c < ncols:
        piv = None
        for i in range(r, len(M)):
            for j in range(c, ncols):
                if M[i][j] and (piv is None or abs(M[i][j]) < abs(M[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        M[r], M[i0] = M[i0], M[r]
        for row in M:
            row[c], row[j0] = row[j0], row[c]
        dirty = True
        while dirty:
            dirty = False
            for i in range(len(M)):
                if i == r:
                    continue
                if M[i][c] % M[r][c]:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    M[r], M[i] = M[i], M[r]
                    dirty = True
                elif M[i][c]:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            for j in range(ncols):
                if j == c:
                    continue
                if M[r][j] % M[r][c]:
                    q = M[r][j] // M[r][c]
                    for row in M:
                        row[j] -= q * row[c]
                    for row in M:
                        row[c], row[j] = row[j], row[c]
                    dirty = True
                elif M[r][j]:
                    q = M[r][j] // M[r][c]
                    for row in M:
                        row[j] -= q * row[c]
        iv.append(abs(M[r][c]))
        r += 1
        c += 1
    if r < ncols:
        return None
    return [v for v in iv if v != 1]


def ray_class_oracle(d: int, S: tuple[int, ...], qmax: int = 40, steps: int = 40, max_rels: int = 400):
    """(order, invariant factors) of Cl_m for m = prod S, or (None, None) if incomplete."""
    o = QuadOrder(d)
    M = 1
    for p in S:
        M *= p
    gens = []
    for q in range(2, qmax):
        if any(q % r == 0 for r in range(2, q)):
            continue
        if q in S:
            continue
        kind, roots = _splitting_in_field(o, q)
        if kind == "ramified":
            continue
        if kind == "split":
            gens.append((q, roots[0]))
            gens.append((q, roots[1]))
        else:
            gens.append((q, None))
    idx = {g: i for i, g in enumerate(gens)}

    def val_vector(x, y):
        vec = [0] * len(gens)
        for q, e in factorint(o.norm(x, y)).items():
            if kronecker(o.D, q) == 0 or q in S:
                return None
            kind, roots = _splitting_in_field(o, q)
            if kind == "inert":
                key = (q, None)
                if key not in idx:
                    return None
                vec[idx[key]] += e // 2
            else:
                if (q, roots[0]) not in idx:
                    return None
                r1, r2 = roots
                xx, yy, ee, e1 = x, y, e, 0
                while ee > 0:
                    m1 = (xx + yy * r1) % q == 0
                    m2 = (xx + yy * r2) % q == 0
                    if m1 and m2:
                        xx //= q
                        yy //= q
                        e1 += 1
                        ee -= 2
                    elif m1:
                        e1 += ee
                        ee = 0
                    else:
                        ee = 0
                vec[idx[(q, r1)]] += e1
                vec[idx[(q, r2)]] += e - e1
        return vec

    rels = []
    for i in range(-steps, steps + 1):
        for j in range(-steps, steps + 1):
            x, y = 1 + M * i, M * j
            if (x, y) == (0, 0):
                continue
            v = val_vector(x, y)
            if v is not None:
                rels.append(v)
                if len(rels) >= max_rels:
                    break
        if len(rels) >= max_rels:
            break
    inv = smith_invariants(rels, len(gens))
    if inv is None:
        return None, None
    order = 1
    for v in inv:
        order *= v
    return order, inv
