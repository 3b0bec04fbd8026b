"""The reference engines of the parity sweeps, and the product corpus they share.

Each reference is an independent slow path, a definition read literally
or an engine the library replaced: the tuple-filter member, equality
patterns as tuples of bools with their tuple coordinates (e0, word,
e_inf), the monomial convolution, the quasi-shuffle of tuple words, the
product's loop over pairs of keys without plans, the L walks on
monomials and on M-coordinates, the minimal L form by submask sums over
tuple-keyed patterns, the reconstruction that sums member tables, the
group-and-count quasisymmetry test, the eager expansion of coordinates,
and the monomial forms of both oracles and of the case rule.
``member_product``
multiplies each pair of members once per session; ``kind_products``,
``small_monomials``, ``mask_cases`` and ``spreading_cases`` are corpora
that more than one test sweeps; ``product_keys`` draws a random pair,
and ``monomials_st`` a random monomial.

pytest does not collect this module, and ``test_imports.py`` checks
that it holds no test and that no test module copies its names.
"""

import functools
import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from borderqsym import (
    INF,
    Monomial,
    NonzeroResidualError,
    NotDivisibleError,
    Series,
    SubsetSpec,
    TruncationError,
    all_monomials,
    all_subsets,
    alphabet,
    l_series,
    problematic_relations,
    reconstruct,
    resolve,
)
from borderqsym import basis, core, families
from conftest import BASES, member, perturbations


def reference_member(kind, s, trunc, q):
    """The definition read literally: each nondecreasing tuple the equal-triple rule keeps, weighing q^naturals."""
    letters = (0, *range(1, trunc + 1), INF)
    terms = {}
    for g in itertools.combinations_with_replacement(letters, s.n):
        padded = (0, *g, INF)
        inside = [padded[i - 1] == padded[i] == padded[i + 1] for i in s.members]
        if (not any(inside)) if kind == "K" else all(inside):
            counts = {}
            for x in g:
                counts[x] = counts.get(x, 0) + 1
            naturals = sum(1 for x in counts if x not in (0, INF))
            terms[Monomial(counts)] = q**naturals
    return Series(s.n, trunc, terms)


@functools.lru_cache(maxsize=16)
def reference_patterns(n):
    """Every pattern of flags of degree n that has a key, with its key."""
    patterns = itertools.product((False, True), repeat=n + 1)
    return [(pattern, key) for pattern in patterns if (key := reference_pattern_key(pattern)) is not None]


def reference_member_coords(kind, s, q):
    """A member's V-free M-coordinates by looping over every pattern of flags."""
    coords = {}
    for pattern, key in reference_patterns(s.n):
        triples = [pattern[i - 1] and pattern[i] for i in s.members]
        if any(triples) if kind == "K" else not all(triples):
            continue
        coords[key] = q ** len(key[1])
    return coords


def reference_equality_pattern(m):
    """The flags g_i = g_{i+1}, i = 0..n, of m's padded nondecreasing tuple."""
    g = (0, *m.indices(), INF)
    return tuple(a == b for a, b in zip(g, g[1:]))


def reference_pattern_key(pattern):
    """The M-coordinate (e0, word, e_inf) of the pattern's block sizes; None if all equal."""
    sizes = [1]
    for equal in pattern:
        if equal:
            sizes[-1] += 1
        else:
            sizes.append(1)
    if len(sizes) == 1:
        return None
    return (sizes[0] - 1, tuple(sizes[1:-1]), sizes[-1] - 1)


def flags_of(mask, n):
    return tuple(mask >> i & 1 == 1 for i in range(n + 1))


def tuple_keyed(coords, n):
    """Degree-n coordinates keyed by mask, rekeyed by the tuple coordinate of each mask's flags."""
    return {reference_pattern_key(flags_of(mask, n)): c for mask, c in coords.items()}


def reference_forced_equalities(s):
    """Entry i: positions i and i+1 are forced equal, as a member i merges i-1, i, i+1."""
    return tuple((i in s.members) or (i + 1 in s.members) for i in range(s.n + 1))


def reference_flag_relations(flags):
    """(kind, position) of each relation: a border or middle block of size 2."""
    n = len(flags) - 1
    if n == 0:
        return []
    out = []
    if flags[0] and not flags[1]:
        out.append(("border_zero", 0))
    for p in range(1, n):
        if flags[p] and not flags[p - 1] and not flags[p + 1]:
            out.append(("interior_square", p))
    if flags[n] and not flags[n - 1]:
        out.append(("border_inf", n))
    return out


def reference_representative(flags):
    """The monomial of these flags placing its middle blocks on 1, 2, 3, ..."""
    g, value = [0], 0
    for equal in flags:
        if not equal:
            value += 1
        g.append(value)
    return Monomial.from_indices(INF if v == value else v for v in g[1:-1])


def reference_key(m):
    """The tuple M-coordinate of m: (e0, word of natural exponents, e_inf)."""
    pairs = m.pairs
    e0 = pairs[0][1] if pairs and pairs[0][0] == 0 else 0
    einf = pairs[-1][1] if pairs and pairs[-1][0] == INF else 0
    return (e0, tuple([e for _, e in pairs[e0 > 0:len(pairs) - (einf > 0)]]), einf)


def reference_mask(key):
    """The equality mask of a tuple coordinate: a block of size b sets b - 1 flags, then one clear."""
    e0, word, einf = key
    flags = []
    for size in (e0 + 1, *word, einf + 1):
        flags += [True] * (size - 1) + [False]
    return sum(1 << i for i, equal in enumerate(flags[:-1]) if equal)


def word_bits(word):
    """A tuple word as the library's bit-word: letter k is k - 1 set bits, then a clear bit."""
    bits, pos = 0, 0
    for k in word:
        bits |= (1 << k - 1) - 1 << pos
        pos += k
    return bits


def compositions(total):
    """Every word of positive letters summing to total."""
    if total == 0:
        return [()]
    return [(head, *rest) for head in range(1, total + 1) for rest in compositions(total - head)]


@functools.lru_cache(maxsize=None)
def reference_quasi_shuffle(u, v):
    """Hoffman's quasi-shuffle of two tuple words, as (word, multiplicity) pairs."""
    if not u or not v:
        return ((u + v, 1),)
    out = {}
    for head, rest in (
        (u[0], reference_quasi_shuffle(u[1:], v)),
        (v[0], reference_quasi_shuffle(u, v[1:])),
        (u[0] + v[0], reference_quasi_shuffle(u[1:], v[1:])),
    ):
        for w, c in rest:
            w = (head, *w)
            out[w] = out.get(w, 0) + c
    return tuple(out.items())


def packed_terms(series):
    """Terms keyed by the exponent vector over the alphabet, 8 bits a variable."""
    shift = {i: 8 * p for p, i in enumerate(alphabet(series.trunc))}
    return {sum(e << shift[i] for i, e in m.pairs): c for m, c in series.terms.items()}


def reference_product(a, b):
    """The product by monomial convolution: exponent vectors add."""
    right = packed_terms(b).items()
    out = {}
    for x, c1 in packed_terms(a).items():
        for y, c2 in right:
            out[x + y] = out.get(x + y, 0) + c1 * c2
    return {g: c for g, c in out.items() if c}


def reference_walk(target):
    """The L walk on monomials at V: a Decomposition, or the library's error with the walk's fields."""
    d, trunc = target.degree, target.trunc
    residual = dict(target.terms)
    coeffs = {}
    for size in range(d + 1):
        for members in itertools.combinations(range(1, d + 1), size):
            # block numbers of padded positions 0..d+1, equal exactly where forced
            blocks = [0]
            for i in range(1, d + 2):
                blocks.append(blocks[-1] + (i - 1 not in members and i not in members))
            if blocks[-1] == 0:
                continue
            s = SubsetSpec(d, frozenset(members))
            w = Monomial.from_indices(INF if b == blocks[-1] else b for b in blocks[1:-1])
            c, divisor = residual.get(w, 0), 2 ** (blocks[-1] - 1)
            if c % divisor:
                raise NotDivisibleError(s, w, c, divisor)
            if c:
                coeffs[s] = c // divisor
                for m, v in l_series(s, trunc).terms.items():
                    residual[m] = residual.get(m, 0) - coeffs[s] * v
    left = {m: c for m, c in residual.items() if c}
    if left:
        w = min(left, key=lambda m: (m.degree, m.indices()))
        raise NonzeroResidualError(w, left[w])
    return basis.Decomposition(d, "L", coeffs)


@functools.lru_cache(maxsize=1 << 11)
def tuple_keyed_l_member(s):
    """The V-free L member of s, keyed by tuple coordinate."""
    return tuple_keyed(families._pattern_coords("L", s, 2), s.n)


def reference_coordinate_walk(target, subset_order=None):
    """The L walk on M-coordinates, subset by subset: a Decomposition, or the walk's error.

    Reads the residual at the key of the subset's forced pattern, checks
    it is divisible by 2^(middle blocks), and subtracts that multiple of
    the whole V-free L member from the residual.  In the default order,
    by size and then lexicographically, the library's decomposition must
    answer exactly as this does; another order within a size must fail
    where it fails and otherwise reconstruct the target.
    """
    d = target.degree
    if target.trunc < d:
        raise TruncationError(f"need trunc >= degree {d}, got {target.trunc}")
    order = list(all_subsets(d)) if subset_order is None else list(subset_order)
    coords = target._coords
    if coords is None:
        residual = {reference_key(m): c for m, c in target.terms.items() if m.max_natural() == m.distinct_naturals()}
    else:
        residual = tuple_keyed(coords, d)
    coeffs = {}
    for s in order:
        forced = reference_forced_equalities(s)
        generic = reference_pattern_key(forced)
        if generic is None:
            continue
        c = residual.get(generic, 0)
        if c == 0:
            continue
        divisor = 2 ** len(generic[1])
        if c % divisor:
            raise NotDivisibleError(s, reference_representative(forced), c, divisor)
        k = c // divisor
        for key, lc in tuple_keyed_l_member(s).items():
            value = residual.get(key, 0) - k * lc
            if value:
                residual[key] = value
            else:
                residual.pop(key, None)
        coeffs[s] = k
    found = basis.Decomposition(d, "L", coeffs)
    if residual or coords is None:
        left = target - reconstruct(found, target.trunc)
        if not left.is_zero():
            witness, c = min(left.terms.items(), key=lambda mc: mc[0].sort_key())
            raise NonzeroResidualError(witness, c)
    return found


@functools.lru_cache(maxsize=16)
def reference_forced_lattice(d):
    """The forced patterns of degree d with their first subsets, and the forced patterns inside each pattern.

    ``firsts`` maps each forced pattern that has a key to its first
    subset, by size and then lexicographically, in that order;
    ``inside`` maps the key of every pattern to its middle blocks and the
    keys of the forced patterns inside it.
    """
    firsts = {}
    for s in all_subsets(d):
        forced = reference_forced_equalities(s)
        if reference_pattern_key(forced) is not None:
            firsts.setdefault(forced, s)
    inside = {
        key: (len(key[1]), [reference_pattern_key(f) for f in firsts if all(e or not x for x, e in zip(f, flags))])
        for flags, key in reference_patterns(d)
    }
    return firsts, inside


def reference_minimal_read(target):
    """The minimal L form as (subset, coefficient) pairs by first subset, or None outside the span.

    The L member of a subset carries 2^(middle blocks) at every pattern
    containing its forced pattern, so a combination with weight W(F) on
    each forced pattern F has 2^mid(E) times the sum of W over the forced
    patterns inside E at each pattern E.  The weights are solved forced
    pattern by forced pattern, fewest equalities first, by subtracting the
    weights inside; the target is in the span when each is an integer and
    the combination gives the target at every pattern.
    """
    d = target.degree
    coords = target._coords
    if coords is None:
        return None
    c = tuple_keyed(coords, d)
    firsts, inside = reference_forced_lattice(d)
    weights = {}
    for forced in sorted(firsts, key=sum):
        key = reference_pattern_key(forced)
        mid, keys = inside[key]
        q, r = divmod(c.get(key, 0), 2**mid)
        if r:
            return None
        weights[key] = q - sum(weights[k] for k in keys if k != key)
    if any(c.get(key, 0) != 2**mid * sum(weights[k] for k in keys) for key, (mid, keys) in inside.items()):
        return None
    terms = ((s, weights[reference_pattern_key(forced)]) for forced, s in firsts.items())
    return [(s, w) for s, w in terms if w]


def walk_outcome(decompose, target):
    """The coefficients in insertion order, or the error's type and every field."""
    try:
        dec = decompose(target)
    except NotDivisibleError as err:
        return ("not divisible", err.spec, err.monomial, err.coefficient, err.divisor, str(err))
    except NonzeroResidualError as err:
        return ("residual", err.witness, err.coefficient, str(err))
    except TruncationError as err:
        return ("truncation", str(err))
    return ("ok", list(dec.coeffs.items()))


def in_k_basis(l_coeffs):
    # L_S is the signed sum of K_T over T within S, sign (-1)^|T|
    out = {}
    for s, c in l_coeffs.items():
        for size in range(len(s.members) + 1):
            for t in itertools.combinations(sorted(s.members), size):
                key = SubsetSpec(s.n, frozenset(t))
                out[key] = out.get(key, 0) + (-1) ** size * c
    return {t: c for t, c in out.items() if c}


def reference_member_sum(dec):
    """The combination's M-coordinates summed member table by member table, zeros dropped."""
    coords = {}
    for s, c in dec.coeffs.items():
        for key, v in families._pattern_coords(dec.basis, s, 2).items():
            coords[key] = coords.get(key, 0) + c * v
    return {key: c for key, c in coords.items() if c}


def reference_pair_loop(a, b):
    """The product's M-coordinates by a loop over pairs of keys that splits both and adds their border bits.

    Zeros and words longer than V dropped, in the order of the pairs and
    of each quasi-shuffle.
    """
    n = a.degree + b.degree
    right = [(*core._split(key, b.degree), c) for key, c in b._coords.items()]
    out = {}
    for key, ca in a._coords.items():
        a0, u, su, ainf = core._split(key, a.degree)
        for b0, v, sv, binf, cb in right:
            e0, einf = a0 + b0, ainf + binf
            border = (1 << e0) - 1 | (1 << einf) - 1 << n + 1 - einf
            for w, mult in core._quasi_shuffle(u, su, v, sv):
                w = border | w << e0 + 1
                out[w] = out.get(w, 0) + ca * cb * mult
    return {w: c for w, c in out.items() if c and n - w.bit_count() <= a.trunc}


def reference_relabel(series):
    """Quasisymmetry by grouping monomials on (e0, word, e_inf) and counting placements."""
    groups = {}
    for m, c in series.terms.items():
        naturals = [(i, e) for i, e in m.pairs if i != 0 and i != INF]
        key = (m.exponent(0), tuple(e for _, e in naturals), m.exponent(INF))
        groups.setdefault(key, {})[tuple(i for i, _ in naturals)] = c
    return all(
        len(placements) == math.comb(series.trunc, len(word)) and len(set(placements.values())) == 1
        for (_, word, _), placements in groups.items()
    )


def reference_expand(degree, trunc, coords):
    """The eager expansion: every placement of every word that fits, key by key."""
    terms = {}
    naturals = range(1, trunc + 1)
    trusted = Monomial._trusted
    # cells[e] holds (i, e) for i = 0, 1, ..., V and then (INF, e)
    cells = [[*((i, e) for i in range(trunc + 1)), (INF, e)] for e in range(degree + 1)]
    for key, c in tuple_keyed(coords, degree).items():
        e0, word, einf = key
        if len(word) > trunc:
            continue
        head = (cells[e0][0],) if e0 else ()
        tail = (cells[einf][-1],) if einf else ()
        columns = [cells[e] for e in word]
        for placement in itertools.combinations(naturals, len(word)):
            terms[trusted((*head, *map(list.__getitem__, columns, placement), *tail), degree)] = c
    return terms


def reference_flags_spreading(f):
    """The flags sweep: by pattern on coordinates, else by monomial of the slice."""
    coords = f._coords
    if coords is None:
        cases = ((reference_equality_pattern(m), f.coefficient(m)) for m in all_monomials(f.degree, f.trunc))

        def resolved(flags):
            return f.coefficient(reference_representative(flags))

    else:
        keyed = tuple_keyed(coords, f.degree)
        patterns = itertools.product((False, True), repeat=f.degree + 1)
        cases = ((flags, keyed.get(reference_pattern_key(flags), 0)) for flags in patterns)

        def resolved(flags):
            return keyed.get(reference_pattern_key(flags), 0)

    for flags, c in cases:
        for _, p in reference_flag_relations(flags):
            if 2 * c != resolved((*flags[:p], False, *flags[p + 1:])):
                return False
    return True


@functools.lru_cache(maxsize=16)
def slice_resolutions(degree, trunc):
    """Each monomial of the slice that has problematic relations, with its resolutions."""
    out = []
    for m in all_monomials(degree, trunc):
        relations = problematic_relations(m)
        if relations:
            out.append((m, [resolve(m, relation, trunc) for relation in relations]))
    return out


def reference_slice_spreading(f):
    """Every monomial of the slice: each resolution must double its coefficient."""
    return all(
        2 * f.coefficient(m) == f.coefficient(resolved)
        for m, resolutions in slice_resolutions(f.degree, f.trunc)
        for resolved in resolutions
    )


def reference_exponent_relations(m):
    """The relation rule read off exponents: a lone border, a natural squared."""
    t = (0, *m.indices(), INF)
    out = []
    if m.exponent(0) == 1:
        out.append(("border_zero", 0))
    for i, e in m.pairs:
        if i != 0 and i != INF and e == 2:
            out.append(("interior_square", t.index(i)))
    if m.exponent(INF) == 1:
        out.append(("border_inf", m.degree))
    return sorted(out, key=lambda r: r[1])


def reference_k1_coefficient(mono, right):
    """The case rule monomial by monomial: each variable's removal from the monomial's own tuple."""
    if mono.degree != right.n + 1:
        raise ValueError(f"degree mismatch: monomial has {mono.degree}, expected {right.n + 1}")
    return sum(weight for weight, triples in reference_k1_removals(mono) if triples.isdisjoint(right.members))


@functools.lru_cache(maxsize=1 << 15)
def reference_k1_removals(mono):
    """(case-table weight, positions inside an equal triple) of the tuple of mono / x_i, for each x_i of mono.

    The weight is M for a border or an exponent-1 natural and 2M for a
    higher natural exponent, M = 2^(distinct naturals of mono); the K
    member of a subset keeps the removal iff no member is such a position.
    Cached, so that a sweep over every right subset reads each monomial once.
    """
    big_m = 2 ** mono.distinct_naturals()
    g = mono.indices()
    out = []
    for i, e in mono.pairs:
        at = g.index(i)
        padded = (0, *g[:at], *g[at + 1:], INF)
        triples = frozenset(p for p in range(1, len(padded) - 1) if padded[p - 1] == padded[p] == padded[p + 1])
        out.append((big_m if i in (0, INF) or e == 1 else 2 * big_m, triples))
    return tuple(out)


def reference_rational_solve(columns, target):
    """Gauss-Jordan over Fraction, one equation per monomial; free variables at zero."""
    monomials = sorted(set(itertools.chain(target.terms, *(c.terms for c in columns))), key=Monomial.sort_key)
    rows = [
        [Fraction(c.coefficient(m)) for c in columns] + [Fraction(target.coefficient(m))]
        for m in monomials
    ]
    ncols = len(columns)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    if any(row[ncols] != 0 for row in rows[r:]):
        return None
    solution = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        solution[col] = rows[row_idx][ncols]
    return solution


# The kinds of two factors: K with K and with L, L with L, and each other base with itself.
KIND_PAIRS = [("K", "K"), ("K", "L"), ("L", "L"), ("K3", "K3"), ("K-2", "K-2")]


@functools.lru_cache(maxsize=1 << 15)
def member_product(kind_a, a, kind_b, b, trunc):
    """The product of two members at V, multiplied once per session."""
    return member(kind_a, a, trunc) * member(kind_b, b, trunc)


def kind_products(degree, every=1, pairs=KIND_PAIRS):
    """Every product (or every n-th) of two members of total degree d at V = d, for each pair of kinds."""
    trunc = max(degree, 1)
    keys = ((ka, left, kb, right, trunc)
            for a in range(degree + 1) for left in all_subsets(a) for right in all_subsets(degree - a)
            for ka, kb in pairs)
    for key in itertools.islice(keys, None, None, every):
        yield member_product(*key)


@functools.lru_cache(maxsize=1)
def small_monomials():
    """Every monomial of degree d <= 6 at V = d + 1, built once per session."""
    return tuple(m for d in range(7) for m in all_monomials(d, d + 1))


@functools.lru_cache(maxsize=1)
def mask_cases():
    """(n, mask, tuple key, flag relations) of every mask of degree n <= 12, built once per session."""
    return tuple(
        (n, mask, reference_pattern_key(flags), reference_flag_relations(flags))
        for n in range(13)
        for mask in range(2 << n)
        for flags in (flags_of(mask, n),)
    )


@functools.lru_cache(maxsize=1)
def spreading_cases():
    """(series, perturbed) of every K and L product to degree 5 at V = d + 1, each
    unordered pair once, and of perturbed copies of every 4th product below
    degree 5 and every 16th at it; some copies are not quasisymmetric.
    """
    cases = []
    for kind in ("K", "L"):
        for d in range(6):
            for count, (ka, a, kb, b) in enumerate(factor_pairs(factors(d, (kind,)), {d})):
                product = member_product(ka, a, kb, b, d + 1)
                cases.append((product, False))
                if count % (4 if d < 5 else 16) == 0:
                    cases += [(f, True) for f in perturbations(product)]
    return tuple(cases)


def factors(max_n, kinds=tuple(BASES)):
    """Every (kind, subset) of degree up to max_n, the kind varying fastest."""
    return [(kind, s) for n in range(max_n + 1) for s in all_subsets(n) for kind in kinds]


def factor_pairs(factor_list, degrees):
    """(kind_a, a, kind_b, b) of each unordered pair of factors, in list order, whose degree is in degrees."""
    for i, (ka, a) in enumerate(factor_list):
        for kb, b in factor_list[i:]:
            if a.n + b.n in degrees:
                yield ka, a, kb, b


def monomials_st(degree, trunc):
    return st.lists(
        st.sampled_from(alphabet(trunc)), min_size=degree, max_size=degree
    ).map(lambda g: Monomial.from_indices(sorted(g)))


@st.composite
def product_keys(draw, max_degree, above):
    """(kind_a, a, kind_b, b, V) of a product of degree d <= max_degree, V from d - 1 to d + above."""
    d = draw(st.integers(0, max_degree))
    n = draw(st.integers(0, d))
    trunc = draw(st.integers(max(d - 1, 1), d + above))
    kinds = draw(st.sampled_from(KIND_PAIRS))
    subsets = [draw(st.sets(st.integers(1, k), max_size=k)) if k else set() for k in (n, d - n)]
    a, b = (SubsetSpec(k, frozenset(sub)) for k, sub in zip((n, d - n), subsets))
    return kinds[0], a, kinds[1], b, trunc
