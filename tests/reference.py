"""Reference implementations that the tests check the library against.

Each is the slow, direct form of a library route: the coset action from
subgroup membership over all of Xi(N), the reduction cycles of one trace
by a walk over a set of its reduced forms, the primitivity marking of full
FormClassRecords by their powers, the conjugacy classes by orbit closure
over tuples and by min-label components over all the chain-grid
positions, the type and order of each class's reduction, the empirical
tally by one reduction per class, the family label of one element of
Xi(p^r) by valuations and Euler's criterion, the power relations between
the family sets element by element with powers by binary exponentiation,
the zeta sums' per-class loops' two arithmetics, doubles and mpmath at a
working precision, with the accumulator that rounds the exact sum of their
terms once.  The
reduced forms of a range of traces are also listed from the divisors of
|ac|, read off a smallest-prime-factor sieve, as the independent side of
the sieve-free form generator.  Three
closed forms live here too, as the independent side of a check: the
family-set sizes of an odd prime-power level, the scalar fixed-row count
of the Gamma1 trace and the Gamma0 trace by quadratic-congruence root
counts.  So do the helpers only tests use: the inverse
in Xi(N) and the Gamma1 trace of one element from the closed form's
fixed-row kernel, the scalar completion of a unimodular column by
the extended Euclidean algorithm, which draws elements at levels too large
for `chain_heads`, the similarity invariants of one element of Xi(p^r)
that the closed catalog is parameterised by, and factoring by trial
division with Euler's phi on top of it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from geosplit.census import PowerRelationRow, _fixed_row_count, _predicted_power_label, label_str
from geosplit.core import (ConsistencyError, Family, IntegerMatrix, canon, chain_heads,
                           divisors, enumerate_xi, grid_entries, identity, mul,
                           order_in_xi_tuple, sign_keys, xi_grid_positions, xi_order)
from geosplit.cosets import CosetTable, build_coset_table, splitting_types
from geosplit.geodesics import class_of_matrix, matrix_from_form, max_trace, norm_below, rho_step


def inv(x, n):
    """Inverse in Xi(n): adjugate of a determinant-one matrix."""
    a, b, c, d = x
    return canon(d, -b, -c, a, n)


def matpow(x, k, n):
    """k-th power in Xi(n), k >= 0, by binary exponentiation."""
    r = identity(n)
    while k:
        if k & 1:
            r = mul(r, x, n)
        x = mul(x, x, n)
        k >>= 1
    return r


def vp(x, p):
    """p-adic valuation of x; None for x = 0."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def minus_identity_depth(g, sign, p, r):
    """(k, h) for h = sign*g - I mod p^r: k is the p-adic depth of h, the
    least valuation of its entries (r when h vanishes)."""
    n = p**r
    a, b, c, d = g
    h = ((sign * a - 1) % n, (sign * b) % n, (sign * c) % n, (sign * d - 1) % n)
    return min((vp(x, p) for x in h if x), default=r), h


def label_class(g, order, p, r):
    """Family label of the class of g in Xi(p^r), p odd, one element at a
    time by valuations and Euler's criterion: the oracle of
    `census.family_labels`.

    Labels: ('Id',), ('A0', k, l), ('A', k), ('B', k, m, chi), ('C0', k, l),
    ('C', k); chi is +1/-1 for the even-m split below the maximal m, else 0.
    """
    n = p**r
    e = identity(n)
    if g == e:
        return ("Id",)
    j = vp(order, p) or 0
    l = order // p**j
    a, b, c, d = g
    t = (a + d) % n
    if l > 1:
        disc = (t * t - 4) % n
        v = vp(disc, p)
        if v != 0:
            raise ConsistencyError(f"unexpected disc valuation for l>1 class {g}")
        k = r - j
        return ("A0", k, l) if legendre(disc, p) == 1 else ("C0", k, l)
    # pure p-power order: normalize the sign by maximal depth of h - I,
    # tie-broken by trace(h) == 2 mod p (only that sign sits in the B-stratum)
    sign = max((1, -1), key=lambda sg: (minus_identity_depth(g, sg, p, r)[0],
                                        (sg * (a + d) - 2) % p == 0))
    k, h = minus_identity_depth(g, sign, p, r)
    if k >= r:
        raise ConsistencyError("non-identity class with infinite depth")
    prk = p ** (r - k)
    y = tuple((x // p**k) % prk for x in h)
    d_y = (-(y[0] * y[3] - y[1] * y[2])) % prk
    if d_y != 0 and d_y % p != 0:
        if k < 1 or k > r - 1:
            raise ConsistencyError(f"semisimple depth {k} out of range for {g}")
        return ("A", k) if legendre(d_y, p) == 1 else ("C", k)
    m = r - k if d_y == 0 else min(vp(d_y, p), r - k)
    chi = 0
    if m % 2 == 0 and m < r - k:
        chi = legendre(d_y // p**m, p)
    return ("B", k, m, chi)


def power_relation_reference(p, r):
    """The rows of `census.power_relation_check(p^r)` element by element:
    every element of Xi(p^r) labelled by `label_class` with its order from
    `order_in_xi_tuple`, and every family set raised to each power
    M = 1..p by `matpow`, compared as sets of elements."""
    n = p**r
    label_of = {g: label_class(g, order_in_xi_tuple(g, n), p, r) for g in enumerate_xi(n)}
    sets = {}
    for g, lab in label_of.items():
        sets.setdefault(lab, set()).add(g)

    def elements_of(lab):
        if lab[0] == "B" and lab[-1] == 0:
            # unsplit target absorbs both chi halves if a split exists
            return set().union(*(sets.get(lab[:3] + (chi,), set()) for chi in (0, 1, -1)))
        return sets.get(lab, set())

    def collapse_note(predicted, computed, expected):
        if expected - computed:
            return ""
        min_depth = predicted[1] if predicted[0] == "B" else r
        for g in computed - expected:
            glab = label_of[g]
            if glab != ("Id",) and not (glab[0] == "B" and glab[1] > min_depth):
                return ""
        return "extra elements are identity-collapsed or deeper-stratum (p=3 order anomaly)"

    rows = []
    for lab in sorted(sets, key=str):
        if lab == ("Id",):
            continue
        for m_exp in range(1, p + 1):
            predicted = _predicted_power_label(lab, m_exp, p, r)
            computed = {matpow(g, m_exp, n) for g in sets[lab]}
            expected = elements_of(predicted)
            ok = computed == expected
            note = "" if ok else collapse_note(predicted, computed, expected)
            rows.append(PowerRelationRow(label_str(lab), m_exp, label_str(predicted), ok, note))
    return rows


def factorize_reference(n):
    """n = prod p^e as a list of (p, e), by trial division."""
    out = []
    x = n
    p = 2
    while p * p <= x:
        if x % p == 0:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            out.append((p, e))
        p += 1
    if x > 1:
        out.append((x, 1))
    return out


def euler_phi(n):
    res = n
    for p, _ in factorize_reference(n):
        res -= res // p
    return res


def similarity_invariant(g, p, r):
    """The invariants of the GL2(Z/p^r)-similarity class of g in Xi(p^r), p
    odd, with the sign of g fixed by l = tr(g)/2 mod p^r <= (p^r - 1)/2:
    ("I",) for g = I, else (l, k, D) for B = g - lI, p^k = gcd(B, p^r) and
    D = det(B/p^k) mod p^(r-k)."""
    n = p**r
    l = (g[0] + g[3]) * ((n + 1) // 2) % n
    if l > n // 2:
        g, l = tuple(-x % n for x in g), n - l
    b = (g[0] - l, g[1], g[2], g[3] - l)
    pk = math.gcd(*b, n)
    if pk == n:
        return ("I",)
    a, b_, c, d = ((x // pk) % (n // pk) for x in b)
    return (l, vp(pk, p), (a * d - b_ * c) % (n // pk))


def unimodular_columns(n):
    """The unimodular first columns (a, c) of Xi(n) in lexicographic order,
    one per {+-} pair: the one not above its negation (every column for
    n = 2, where -I = I)."""
    for a in range(n // 2 + 1):  # a <= -a mod n
        tied = a == (n - a) % n  # a = 0 or n/2: the sign then acts on c alone
        for c in range(n):
            if math.gcd(a, c, n) == 1 and not (tied and (n - c) % n < c):
                yield a, c


def complete_column(a, c, n):
    """An element (a, b, c, d) of SL2(Z/n) with the unimodular first column
    (a, c), entries reduced mod n but not canonical: from u*a + v*c = g,
    the determinant of (a, -v/g, c, u/g) is 1."""
    old_r, r, old_s, s, old_t, t = a, c, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    ginv = pow(old_r, -1, n)
    return (a, (-old_t * ginv) % n, c, (old_s * ginv) % n)


def is_member_tuple(g, family, n):
    """Does some lift +-M of g satisfy the congruences of the family mod n?"""
    a, b, c, d = g
    if c % n != 0:
        return False
    if family == Family.GAMMA0:
        return True
    diag_ok = (a % n == 1 % n and d % n == 1 % n) or (a % n == n - 1 and d % n == n - 1)
    if not diag_ok:
        return False
    if family == Family.GAMMA1:
        return True
    return b % n == 0


def act_reference(table: CosetTable):
    """The action by the definition, independent of the key rule: the
    function g -> [j such that g * r_i lies in r_j * Psi for each i], with
    Psi the members of the subgroup among all of Xi(N).  Built once per
    table; raises ConsistencyError when the representatives do not lie in
    distinct cosets that cover Xi(N).  `cosets.act_block` must agree with it."""
    n = table.level
    xi = enumerate_xi(n)
    psi = [h for h in xi if is_member_tuple(h, table.subgroup.family, n)]
    coset_of = {mul(r, h, n): j for j, r in enumerate(table.reps) for h in psi}
    if len(coset_of) != len(xi):
        raise ConsistencyError(f"the representatives of {table.subgroup} do not partition Xi")
    return lambda g: [coset_of[mul(g, r, n)] for r in table.reps]


def fixed_row_count_reference(g, sign, p, r):
    """#{unimodular row vectors v mod p^r with v (sign*g - I) == 0} for one
    element, by the scalar depth formula: with k the least p-adic valuation
    of the entries of h = sign*g - I (r when h = 0), every vector is fixed
    at k = r, and below p^k * phi(p^r) are when h / p^k is singular mod
    p^(r-k), none otherwise."""
    pr = p**r
    a, b, c, d = g
    h = ((sign * a - 1) % pr, (sign * b) % pr, (sign * c) % pr, (sign * d - 1) % pr)
    k = min((vp(x, p) for x in h if x), default=r)
    if k == r:
        return pr * pr - (pr * pr) // (p * p)
    prk = p ** (r - k)
    a, b, c, d = ((x // p**k) % prk for x in h)
    return p**k * (pr - pr // p) if (a * d - b * c) % prk == 0 else 0


def count_sqrt(d, p, e):
    """#{y mod p^e : y^2 == d}, p odd."""
    if e <= 0:
        return 1
    pe = p**e
    d %= pe
    if d == 0:
        return p ** (e - (e + 1) // 2)
    v = vp(d, p)
    if v % 2 == 1:
        return 0
    u = (d // p**v) % p
    if legendre(u, p) != 1:
        return 0
    return 2 * p ** (v // 2)


def count_quad_roots(a, b, c, p, e):
    """#{x mod p^e : a x^2 + b x + c == 0}, p odd, fully recursive."""
    if e <= 0:
        return 1
    pe = p**e
    a %= pe
    b %= pe
    c %= pe
    if a == 0 and b == 0:
        return pe if c == 0 else 0
    if a % p != 0:
        return count_sqrt((b * b - 4 * a * c) % pe, p, e)
    if b % p != 0:
        # derivative is a unit: unique Hensel lift of the single root mod p
        return 1
    if c % p != 0:
        return 0
    return p * count_quad_roots(a // p, b // p, c // p, p, e - 1)


def sigma_gamma0(g, p, r):
    """tr Ind_{Gamma0(p^r)} 1 at g: fixed points on P^1(Z/p^r) by root counts."""
    a, b, c, d = g
    pr = p**r
    first = count_quad_roots(b, (a - d) % pr, (-c) % pr, p, r)
    # second chart: l mod p^(r-1) with c p^2 l^2 + p(a-d) l - b == 0 mod p^r
    if b % p != 0:
        second = 0
    else:
        second = count_quad_roots((c * p) % pr, (a - d) % pr, (-(b // p)) % pr, p, r - 1)
    return first + second


def sigma_gamma1(g, p, r):
    """tr Ind_{Gamma1(p^r)} 1 at g: cosets are +-(row vector) pairs."""
    return int(_fixed_row_count([g], 1, p, r)[0] + _fixed_row_count([g], -1, p, r)[0]) // 2


def family_set_sizes(p, r):
    """Predicted family-set sizes (the eq.-number closed forms), including
    the even-m split halves."""
    out = {("Id",): 1}
    for k in range(1, r + 1):
        for l in divisors((p - 1) // 2):
            if l > 1:
                out[("A0", k, l)] = (
                    euler_phi(l) * p ** (3 * r - k - 2) * (p * p - 1) // 2
                    if k < r
                    else euler_phi(l) * p ** (2 * r - 1) * (p + 1) // 2
                )
        for l in divisors((p + 1) // 2):
            if l > 1:
                out[("C0", k, l)] = (
                    euler_phi(l) * p ** (3 * r - k - 2) * (p - 1) ** 2 // 2
                    if k < r
                    else euler_phi(l) * p ** (2 * r - 1) * (p - 1) // 2
                )
    for k in range(1, r):
        out[("A", k)] = p ** (3 * r - 3 * k - 2) * (p * p - 1) // 2
        out[("C", k)] = p ** (3 * r - 3 * k - 2) * (p - 1) ** 2 // 2
    for k in range(r):
        for m in range(1, r - k + 1):
            full = (
                p ** (3 * r - 3 * k - m - 3) * (p - 1) ** 2 * (p + 1)
                if m < r - k
                else p ** (2 * r - 2 * k - 2) * (p * p - 1)
            )
            if m % 2 == 0 and m < r - k:
                out[("B", k, m, 1)] = full // 2
                out[("B", k, m, -1)] = full // 2
            else:
                out[("B", k, m, 0)] = full
    return out


def spf_list(limit):
    """Smallest-prime-factor table up to limit (inclusive), as a list."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def spf_sieve(limit):
    """Smallest-prime-factor table up to limit (inclusive), int32."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset  # 0, 1 and the primes
    return spf


def reduced_forms_by_divisors(lo, hi, spf):
    """Every reduced form of discriminant t^2 - 4, lo <= t < hi, as int32
    arrays (t, a, b, c), from the divisors of (t^2 - 4 - b^2)/4 read off a
    `spf_sieve` that reaches (hi^2 - 4)/4: the independent side of the
    form generator `geodesics._chunk_forms`.

    isqrt(t^2 - 4) = t - 1 for t >= 3, so (a, b, c) is reduced exactly when
    0 < b < t and t - b <= 2|a| <= t - 1 + b.  For each pair (t, b) with
    b = t mod 2, the divisors a of n = (t^2 - 4 - b^2)/4 = |ac| are expanded
    one prime of the smallest-prime-factor table at a time.  A partial
    divisor d is dropped once it is above the window (it only grows) or once
    d times the unfactored rest is below it.  Each divisor in the window
    gives (a, b, -n/a) and (-a, b, n/a).  Every value stays below t^2 <
    2^31 under the cap.
    """
    trace = np.arange(lo, hi, dtype=np.int32)
    counts = (trace - 1) // 2  # b = 2 - t % 2, ..., t - 1 in steps of 2
    row = np.repeat(np.arange(len(trace), dtype=np.int32), counts)
    t = trace.take(row)
    b = 2 - t % 2 + 2 * (np.arange(len(row), dtype=np.int32)
                         - np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts))
    n = (t * t - 4 - b * b) // 4
    top, bottom = (t - 1 + b) // 2, t - b
    pair, rest, d = np.arange(len(n), dtype=np.int32), n.copy(), np.ones_like(n)
    found = []
    while len(pair):
        finished = rest == 1
        found.append((pair[finished], d[finished]))
        keep = ~finished & (2 * d * rest >= bottom.take(pair))
        pair, rest, d = pair[keep], rest[keep], d[keep]
        p = spf.take(rest)
        e = np.zeros_like(rest)  # the exponent of p in rest
        live = np.arange(len(rest), dtype=np.int32)
        while len(live):
            q, r = np.divmod(rest.take(live), p.take(live))
            live, q = live[r == 0], q[r == 0]
            rest[live] = q
            e[live] += 1
        e += 1  # rows per partial divisor: p^0, ..., p^e
        k = np.arange(int(e.sum()), dtype=np.int32) - np.repeat(np.cumsum(e, dtype=np.int32) - e, e)
        pair, rest = np.repeat(pair, e), np.repeat(rest, e)
        d = np.repeat(d, e) * np.repeat(p, e) ** k
        keep = d <= top.take(pair)
        pair, rest, d = pair[keep], rest[keep], d[keep]
    pair = np.concatenate([q for q, _ in found])
    a = np.concatenate([a for _, a in found])
    keep = 2 * a >= bottom.take(pair)
    pair, a = pair[keep], a[keep]
    t, b, c = t.take(pair), b.take(pair), n.take(pair) // a
    return (np.concatenate((t, t)), np.concatenate((a, -a)), np.concatenate((b, b)),
            np.concatenate((-c, c)))


def _divisors_from_spf(n, spf):
    divs = [1]
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def reduced_forms_at_trace(t, spf=None):
    """All reduced integral forms of discriminant t^2 - 4, pair (t, b) by
    pair, from the divisors of (t^2 - 4 - b^2)/4: by trial division, or
    from a `spf_list` table that reaches (t^2 - 4)/4."""
    disc = t * t - 4
    sq = math.isqrt(disc)
    forms = []
    b = 2 - (t % 2)
    while b <= sq:
        n = (disc - b * b) // 4  # = |a*c|, signs of a and c are opposite
        if n > 0:
            divs = _divisors_from_spf(n, spf) if spf is not None else divisors(n)
            for a in divs:
                lo = 2 * a - b
                if lo * lo < disc and (2 * a + b) ** 2 > disc:
                    forms.append((a, b, -(n // a)))
                    forms.append((-a, b, n // a))
        b += 2
    return forms


@dataclass
class FormClassRecord:
    trace: int
    cycle: list  # reduction cycle of reduced forms, starting at the canonical one
    representative_matrix: IntegerMatrix
    primitive: bool = True

    @property
    def canonical_form(self):
        return self.cycle[0]


def classes_at_trace(t, spf=None):
    """SL2(Z)-classes of trace t as reduction cycles, one record per cycle,
    canonical representative = least reduced form in the cycle.  The walk
    follows `rho_step` through a set of the unvisited forms;
    `geodesics.enumerate_primitive_classes` must agree with it."""
    if t < 3:
        raise ValueError("hyperbolic classes need trace >= 3")
    disc = t * t - 4
    sq = math.isqrt(disc)
    forms = reduced_forms_at_trace(t, spf)
    unvisited = set(forms)
    records = []
    for start in forms:
        if start not in unvisited:
            continue
        cycle = []
        f = start
        while f in unvisited:
            unvisited.discard(f)
            cycle.append(f)
            f = rho_step(*f, disc, sq)
        if f != start:
            raise RuntimeError(f"reduction walk at trace {t} did not close: {start} -> {f}")
        best = min(range(len(cycle)), key=lambda i: cycle[i])
        cycle = cycle[best:] + cycle[:best]
        records.append(FormClassRecord(t, cycle, matrix_from_form(t, cycle[0])))
    records.sort(key=lambda r: r.canonical_form)
    return records


def power_traces(t0, t_max):
    """Traces of powers: t_1 = t0, t_k = t0 t_{k-1} - t_{k-2}, while <= t_max."""
    out = []
    prev, cur = 2, t0
    k = 1
    while cur <= t_max:
        out.append((k, cur))
        prev, cur = cur, t0 * cur - prev
        k += 1
    return out


def mark_primitivity(records_by_trace, t_max):
    """Flag imprimitive classes among full FormClassRecords (all traces up
    to t_max must be present)."""
    lookup = {t: {r.canonical_form: r for r in recs} for t, recs in records_by_trace.items()}
    for t0, recs in sorted(records_by_trace.items()):
        powers = power_traces(t0, t_max)
        for rec in recs:
            m = rec.representative_matrix
            mk = m
            for k, tk in powers[1:]:
                mk = mk * m
                target = lookup[tk][class_of_matrix(mk)]
                target.primitive = False
    return records_by_trace


def primitive_classes(x):
    """(trace, canonical form, representative matrix) of every primitive
    class with N(gamma) < x, trace by trace from `classes_at_trace` and
    marked by `mark_primitivity`: the enumeration's oracle."""
    t_max = max_trace(x)
    spf = spf_list(max((t_max * t_max - 4) // 4, 4))
    records = {t: classes_at_trace(t, spf) for t in range(3, t_max + 1)}
    mark_primitivity(records, t_max)
    return [(t, r.canonical_form, r.representative_matrix)
            for t, recs in sorted(records.items()) for r in recs if r.primitive]


def residue_keys(classes, n):
    """The reduction mod n of each class's matrix as a canonical tuple, one
    `canon` per class: the per-class oracle behind `class_types`."""
    return [canon(m.a, m.b, m.c, m.d, n) for _, _, m in classes]


def class_types(classes, s):
    """(splitting type, order in Xi(N)) of each (trace, form, matrix)
    triple's reduction: `residue_keys`, then one `splitting_types` call on
    the distinct residues and `order_in_xi_tuple` once per distinct
    residue, independent of `geodesics.cover_keys` and `key_types`.  s None
    is the trivial cover, ((1,), 1)."""
    if s is None:
        return [((1,), 1)] * len(classes)
    keys = residue_keys(classes, s.level)
    distinct = list(dict.fromkeys(keys))
    memo = dict(zip(distinct, zip(splitting_types(distinct, build_coset_table(s)),
                                  [order_in_xi_tuple(g, s.level) for g in distinct])))
    return [memo[g] for g in keys]


def tally_reference(s, x, classes):
    """(counts, total, anomalous, witnesses) of the (trace, form, matrix)
    triples with norm < x, class by class: the exact norm test and
    `class_types`.  `geodesics.empirical_tally` must agree with it."""
    kept = [c for c in classes if norm_below(c[0], x)]
    counts, anomalous, witnesses = {}, 0, []
    for (t, f, _), (lam, order) in zip(kept, class_types(kept, s)):
        counts[lam] = counts.get(lam, 0) + 1
        if order not in lam:
            anomalous += 1
            witnesses.append({"trace": t, "form": list(f), "order": order, "type": list(lam)})
    return counts, len(kept), anomalous, witnesses[:50]


def orbit_closure_classes(level):
    """(representative, size, order) of every conjugacy class of Xi(level),
    by orbit closure under conjugation by S and T over a {tuple: index}
    dict.  The group is listed tuple by tuple from the chains of
    `chain_heads` (no key array), scanned in sorted order, so each
    representative is the least member of its class; the orders come from
    `order_in_xi_tuple`.  `census.conjugacy_classes` must agree with it."""
    n = level
    xi = sorted({canon(a, b0 + t * a, c, d0 + t * c, n)
                 for a, b0, c, d0 in chain_heads(n)[0].T.tolist() for t in range(n)})
    gens = [(g, inv(g, n)) for g in (canon(0, -1, 1, 0, n), canon(1, 1, 0, 1, n))]
    index = {g: i for i, g in enumerate(xi)}
    seen = bytearray(len(xi))
    out = []
    for i, g in enumerate(xi):
        if seen[i]:
            continue
        seen[i] = 1
        size = 1
        stack = [g]
        while stack:
            x = stack.pop()
            for s, si in gens:
                j = index[mul(mul(si, x, n), s, n)]
                if not seen[j]:
                    seen[j] = 1
                    size += 1
                    stack.append(xi[j])
        out.append((g, size, order_in_xi_tuple(g, n)))
    return out


def component_labels(steps, chunk):
    """The least point of the component through every point of the graph
    with the edges i -> step[i] of the permutations `steps` (int32 arrays
    of one length), by min-label hooking with pointer jumping
    (Shiloach-Vishkin) in two int32 buffers: label = min(label,
    label[step] for each step), then label = label[label], until nothing
    changes.  The gathers go `chunk` points at a time, as `take` widens
    its indices to intp (mode="clip" only skips the bounds check)."""
    size = len(steps[0])
    chunks = [slice(start, min(start + chunk, size)) for start in range(0, size, chunk)]
    label = np.arange(size, dtype=np.int32)
    nxt = np.empty_like(label)
    changed = True
    while changed:
        for ch in chunks:
            hooked = nxt[ch]
            hooked[:] = label[ch]
            for step in steps:
                np.minimum(hooked, label.take(step[ch], mode="clip"), out=hooked)
        changed = False
        for ch in chunks:
            jumped = nxt.take(nxt[ch], mode="clip")
            changed = changed or not np.array_equal(jumped, label[ch])
            label[ch] = jumped
    return label


def min_label_class_ids(n):
    """The class id of every position h*n + t of the chain grid of Xi(n),
    numbered in order of the classes' least positions, and each class's
    least +-canonical key, by the connected components of conjugation by
    S and by T over all the positions: two int32 position arrays of the
    conjugates, min-label hooking with pointer jumping over both
    (`component_labels`), then each class's least key
    (`np.minimum.at`).  `census._class_ids` must agree with it."""
    order = xi_order(n)
    flat = np.arange(order, dtype=np.int32)
    a, b, c, d = grid_entries(flat, n)
    conj = ((d, (a - c) % n), (-c % n, (a - c + b - d) % n), (-b % n, c), (a, (c + d) % n))
    conj_s, conj_t = xi_grid_positions(np.array(conj), n)
    label = component_labels([conj_s, conj_t], 1 << 14)
    rank = np.cumsum(label == flat, dtype=np.int32) - 1
    ids = rank.take(label)
    least = np.full(int(rank[-1]) + 1, np.iinfo(np.int64).max)
    np.minimum.at(least, ids, sign_keys((a, b, c, d), n))
    return ids, least


class FloatArith:
    """The per-class loops' terms in doubles, one `math` call at a time."""

    def log_norm(self, t):
        # log N(gamma) = 2 log((t + sqrt(t^2-4))/2)
        return 2.0 * math.log((t + math.sqrt(t * t - 4.0)) / 2.0)

    def euler_term(self, log_n, s):
        # -log(1 - N^{-s})
        return -math.log1p(-math.exp(-s * log_n))

    def frac(self, a, b):
        return a / b


class MPArith:
    """The same terms in mpmath at a given precision, in a context of its
    own that leaves the process-wide precision alone."""

    def __init__(self, dps=40):
        import mpmath

        self.mp = mpmath.MPContext()
        self.mp.dps = dps

    def total(self, terms, counts):
        """sum counts[j] * terms[j], exact and rounded once at the context's
        precision: every non-zero mpf is +-man * 2^exp, so the sum is one
        integer times 2 to the least exponent."""
        pairs = [(c if x > 0 else -c, x.man, x.exp) for c, x in zip(counts, terms) if c and x]
        low = min((e for _, _, e in pairs), default=0)
        return self.mp.mpf((sum(c * m << (e - low) for c, m, e in pairs), low))

    def log_norm(self, t):
        t = self.mp.mpf(t)
        return 2 * self.mp.log((t + self.mp.sqrt(t * t - 4)) / 2)

    def euler_term(self, log_n, s):
        return -self.mp.log1p(-self.mp.e ** (-self.mp.mpf(s) * log_n))

    def frac(self, a, b):
        return self.mp.mpf(a) / self.mp.mpf(b)


class ExactSum:
    """A per-class loop's terms, collected one at a time; `total` is their
    exact sum rounded once: `math.fsum` for doubles, and for mpf (given the
    context `mp`) the sum of the terms as exact rationals, rounded once at
    the context's precision."""

    def __init__(self, mp=None):
        self.mp = mp
        self.terms = []

    def add(self, x):
        self.terms.append(x)

    @property
    def total(self):
        if self.mp is None:
            return math.fsum(self.terms)
        exact = sum((int(self.mp.sign(x)) * Fraction(x.man) * Fraction(2) ** x.exp
                     for x in self.terms), Fraction(0))
        # the denominator is a power of two: round the numerator, then scale exactly
        k = exact.denominator.bit_length() - 1
        return self.mp.ldexp(self.mp.mpf(exact.numerator), -k)


def acc(ar):
    """A fresh accumulator for the arithmetic `ar`: an ExactSum of doubles,
    or of mpf in the context of an MPArith."""
    return ExactSum(ar.mp if isinstance(ar, MPArith) else None)
