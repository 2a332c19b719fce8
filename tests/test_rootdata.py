"""Root systems, Weyl groups, coset enumeration."""

import hashlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homgenus.catalog import catalog_list, catalog_space
from homgenus.rootdata import (
    CosetSpace,
    GroupData,
    InputError,
    Ordering,
    SubgroupData,
    build_group,
    canonical_positive,
    compose,
    default_ordering,
    group_from_doc,
    reflection_group_order,
    vec_add,
    vec_neg,
)
from homgenus.structures import HomogeneousSpace, make_space
from rootdata_reference import coset_action_reference, coset_search_reference
from series_reference import gram_pairing, word_image


def test_builtin_group_root_counts():
    for spec, dim, nroots in (
        ("U(3)", 3, 6),
        ("SU(3)", 3, 6),
        ("U(5)", 5, 20),
        ("Sp(2)", 2, 8),
        ("SO(4)", 2, 4),
        ("SO(5)", 2, 8),
        ("SO(6)", 3, 12),
        ("SO(7)", 3, 18),
        ("G2", 2, 12),
        ("T3", 3, 0),
    ):
        g = build_group(spec)
        assert g.dim == dim
        assert len(g.roots) == nroots


def test_su_rank_drops():
    assert build_group("SU(4)").rank == 3
    assert build_group("U(4)").rank == 4


def test_build_group_rejects_unknown():
    with pytest.raises(ValueError, match="unrecognized group"):
        build_group("E8")


@pytest.mark.parametrize(
    "gram",
    [((2, -1), (-1, 2), (0, 0)), ((2, -1, 0), (-1, 2, 0))],
    ids=["three-rows", "rows-of-three"],
)
def test_gram_must_be_dim_by_dim(gram):
    g2 = build_group("G2")
    with pytest.raises(InputError, match="gram must be a 2 x 2 matrix"):
        GroupData("G2", 2, g2.roots, gram=gram)
    with pytest.raises(InputError, match="gram must be a 2 x 2 matrix"):
        group_from_doc({"dim": 2, "roots": [list(r) for r in g2.roots], "gram": [list(row) for row in gram]})


def test_roots_come_in_pairs():
    for spec in ("U(4)", "Sp(2)", "SO(5)", "G2"):
        g = build_group(spec)
        roots = set(g.roots)
        for r in roots:
            assert tuple(-c for c in r) in roots


def test_positive_roots_split():
    g = build_group("U(3)")
    pos = g.positive_roots()
    assert len(pos) == 3
    assert set(pos) == {
        (1, -1, 0),
        (1, 0, -1),
        (0, 1, -1),
    }


def test_simple_roots_u3():
    assert set(build_group("U(3)").simple_roots()) == {(1, -1, 0), (0, 1, -1)}


def weyl_group(group):
    """W of `group` under the default ordering: the cosets of the trivial
    subgroup."""
    return CosetSpace(group, group.simple_roots(default_ordering(group.dim)), ())


def test_weyl_orders():
    for spec, order in (("U(3)", 6), ("U(4)", 24), ("Sp(2)", 8), ("SO(4)", 4), ("SO(5)", 8), ("G2", 12)):
        assert len(list(weyl_group(build_group(spec)))) == order


def test_weyl_identity_word_is_empty():
    w = weyl_group(build_group("U(3)"))
    words = [e.word for e in w]
    assert () in words
    assert w.representatives[0].word == ()
    assert w.representatives[0].perm == tuple(range(6))


def _assert_words_match_perms(space):
    """Each element of W and of W_H moves every root along its word, by
    Fraction reflections, to the root its permutation names."""
    roots = space.group.roots
    for wg, simple in (
        (space.weyl, space.group.simple_roots(space.ordering)),
        (space.subgroup_weyl, space.subgroup_simple),
    ):
        for el in wg:
            for i, root in enumerate(roots):
                assert word_image(space.group, simple, el.word, root) == roots[el.perm[i]]


@pytest.mark.parametrize(
    "group, sub_roots",
    [
        ("U(4)", [(0, 0, 1, -1), (0, 0, -1, 1), (0, 1, -1, 0), (0, -1, 1, 0), (0, 1, 0, -1), (0, -1, 0, 1)]),
        ("Sp(2)", [(0, 2), (0, -2)]),
        ("SO(5)", [(1, 0), (-1, 0)]),
        ("G2", [(1, -1), (-1, 1), (2, 1), (-2, -1), (1, 2), (-1, -2)]),
    ],
)
def test_weyl_words_and_perms_agree(group, sub_roots):
    _assert_words_match_perms(make_space(group, sub_roots))


def _reflection_perm_reference(group, alpha):
    """The reflection in alpha as a root permutation, in Fractions."""
    norm = Fraction(gram_pairing(alpha, alpha, group.gram))
    perm = []
    for r in group.roots:
        n = 2 * Fraction(gram_pairing(r, alpha, group.gram)) / norm
        perm.append(group.root_index[tuple(a - n * b for a, b in zip(r, alpha))])
    return tuple(perm)


@pytest.mark.parametrize(
    "group",
    [build_group(g) for g in ("U(4)", "SU(3)", "Sp(3)", "SO(7)", "SO(8)", "G2")]
    + [
        group_from_doc({"dim": 3, "roots": [[str(Fraction(c, 2)) for c in r] for r in build_group("U(3)").roots]}),
        group_from_doc({"dim": 2, "roots": [[2, 0], [-2, 0], [0, 2], [0, -2]], "gram": [["1/2", 0], [0, 3]]}),
    ],
    ids=lambda g: g.label,
)
def test_reflection_perm_matches_the_fraction_reference(group):
    for alpha in group.roots:
        assert group.reflection_perm(alpha) == _reflection_perm_reference(group, alpha)


def test_reflection_is_involutive():
    g2 = build_group("G2")
    for alpha in g2.roots:
        p = g2.reflection_perm(alpha)
        assert compose(p, p) == tuple(range(len(g2.roots)))


def test_g2_has_two_root_lengths():
    g2 = build_group("G2")
    norms = {gram_pairing(r, r, g2.gram) for r in g2.roots}
    assert len(norms) == 2
    assert max(norms) == 3 * min(norms)


def test_default_ordering():
    o = default_ordering(3)
    assert o.v == (3, 2, 1)
    assert o.sign((1, -1, 0)) == 1
    assert o.sign((-1, 1, 0)) == -1
    assert o.sign((0, 0, 1)) == 1


def test_ordering_rejects_nongeneric():
    with pytest.raises(ValueError, match="not generic"):
        Ordering((1, 1, 0)).sign((1, -1, 0))
    with pytest.raises(ValueError, match="not generic"):
        default_ordering(3).sign((0, 0, 0))


def test_canonical_positive():
    line, scale = canonical_positive((-2, 2, 0))
    assert line == (1, -1, 0)
    assert scale == -2
    line, scale = canonical_positive((Fraction(1, 2), Fraction(-1, 2), 0))
    assert line == (1, -1, 0)
    assert scale == Fraction(1, 2)


def test_canonical_positive_reconstructs():
    v = (Fraction(-3, 2), 0, Fraction(3, 2))
    line, scale = canonical_positive(v)
    assert tuple(scale * c for c in line) == v


def test_coset_counts():
    u4 = build_group("U(4)")
    u3_inside = SubgroupData(u4, tuple(
        r for r in u4.roots if r[0] == 0
    ))
    cs = HomogeneousSpace(u4, u3_inside).cosets
    assert len(cs.representatives) == 4


def test_subgroup_closure_checked():
    sp2 = build_group("Sp(2)")
    with pytest.raises(ValueError, match="not closed"):
        SubgroupData(sp2, ((1, -1), (-1, 1), (2, 0), (-2, 0)))


def test_subgroup_roots_must_come_from_ambient():
    u3 = build_group("U(3)")
    with pytest.raises(ValueError):
        SubgroupData(u3, ((2, 0, 0), (-2, 0, 0)))


def test_group_from_doc_parses_rationals():
    g = group_from_doc(
        {"label": "X", "dim": 2, "roots": [["1", "-1"], ["-1", "1"]], "rank": 2}
    )
    assert g.roots == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)))
    assert g.label == "X"


def test_weyl_coset_order_identity():
    # |W(G)| = |W(H)| * number of fixed cosets, H of maximal rank
    u4 = build_group("U(4)")
    sub = SubgroupData(u4, tuple(r for r in u4.roots if r[0] == 0))
    h = sub.as_group()
    wg = len(list(weyl_group(u4)))
    wh = len(list(weyl_group(h)))
    assert wg == wh * len(HomogeneousSpace(u4, sub).cosets.representatives)


# Coset words of every catalog space: (number of cosets, sha1 of the repr of
# [rep.word for rep in space.cosets.representatives]).  The words and their
# order are visible in `genus chi-y` output, so they are frozen.
CATALOG_COSET_WORDS = {
    "S6": (2, "b2e33ac61e01b9476e5761a953a3d583e934a2bb"),
    "CP1": (2, "b2e33ac61e01b9476e5761a953a3d583e934a2bb"),
    "CP2": (3, "2d592e9b7f4a13b685d6fd6679e864c0d8d0ae9a"),
    "CP3": (4, "a443c5c1dbe6199cc12ab63ad4779ec8cf1f932c"),
    "U3-flag": (6, "b38828cbeb39ef8a338f4cc8c30c4572c0bedc6f"),
    "U4-flag": (24, "a8b6adced5c9c24c74c79309e6ccf6fea7de1c3f"),
    "U5-flag": (120, "826d4faf9654a1cbd1fe2edd68e75bcb51b2222a"),
    "G42": (6, "cb22be12b2ed60c49202fb2a4704cf18c39a87a9"),
    "G52": (10, "218c434349dc7880d39eeb708f502a1fd78814ab"),
    "G622": (90, "97369fca0962a2c688f049bd1700d776d16cbfb0"),
    "U4-T2xU2": (12, "c8a96173ffcb58772498a19e188b2d112c2634c5"),
    "G2-flag": (12, "6285e6b51be806b23280b250aba499c683ff20b9"),
    "Sp2-flag": (8, "38588e773fa5b9f72b829c3b71d8d74816bae92a"),
    "HP1": (2, "35b64c600ecefb292ee73de11cfe4b06eb6a312e"),
    "HP2": (3, "d77e22b735ebcffaacf7139866b9aeaee8b21df6"),
    "CP3-sp": (4, "e8bd5ebc473ee3e6fa6f991cb079aa2850e58c35"),
}


def test_reflection_group_order_counts_the_search():
    # |W|, |W_H| and |W/W_H| read off the root heights, against the searches
    for name in catalog_list():
        space = catalog_space(name)
        order = reflection_group_order(space.group, space.simple_roots)
        h_order = reflection_group_order(space.group, space.subgroup_simple)
        sizes = (len(space.weyl), len(space.subgroup_weyl), len(space.cosets))
        assert sizes == (order, h_order, order // h_order), name


def test_catalog_coset_words_are_frozen():
    assert sorted(CATALOG_COSET_WORDS) == sorted(catalog_list())
    assert [r.word for r in catalog_space("G42").cosets.representatives] == [
        (), (1,), (0, 1), (2, 1), (0, 2, 1), (1, 0, 2, 1)
    ]
    for name, (count, sha) in CATALOG_COSET_WORDS.items():
        words = [r.word for r in catalog_space(name).cosets.representatives]
        assert len(words) == count, name
        assert hashlib.sha1(repr(words).encode()).hexdigest() == sha, name


def _closed_subsystem(group, seeds):
    """The smallest negation- and addition-closed set of roots of `group`
    containing `seeds`."""
    roots = set(seeds) | {vec_neg(r) for r in seeds}
    while True:
        sums = {vec_add(a, b) for a in roots for b in roots} & group.root_set
        if sums <= roots:
            return roots
        roots |= sums


@st.composite
def block_subgroups(draw):
    """A space U(n)/H with H a product of unitary blocks, n <= 5."""
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j and labels[i] == labels[j]:
                r = [0] * n
                r[i], r[j] = 1, -1
                roots.append(tuple(r))
    return "U(%d)" % n, roots


@st.composite
def closed_subgroups(draw):
    """A space G/H for G in Sp(2), Sp(3), G2 and H spanned by a few roots."""
    group = build_group(draw(st.sampled_from(["Sp(2)", "Sp(3)", "G2"])))
    seeds = draw(st.lists(st.sampled_from(group.roots), max_size=3))
    return group, sorted(_closed_subsystem(group, seeds))


def _inverse(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


@settings(max_examples=40, deadline=None)
@given(st.one_of(block_subgroups(), closed_subgroups()))
def test_cosets_by_root_permutations(case):
    group, sub_roots = case
    space = make_space(group, sub_roots)
    wg, wh, cosets = space.weyl, space.subgroup_weyl, space.cosets
    reps = cosets.representatives
    assert len(wg) == len(wh) * len(cosets)
    assert len(wg) == reflection_group_order(space.group, space.simple_roots)
    assert len(wh) == reflection_group_order(space.group, space.subgroup_simple)

    # brute force: w lies in the coset of r exactly when r^-1 w is in W_H
    wh_perms = {h.perm for h in wh}
    members = [[] for _ in reps]
    for w in wg:
        hits = [
            i for i, r in enumerate(reps)
            if tuple(_inverse(r.perm)[j] for j in w.perm) in wh_perms
        ]
        assert len(hits) == 1
        members[hits[0]].append(w)
    for r, coset in zip(reps, members):
        assert r.word == min((len(w.word), w.word) for w in coset)[1]

    # the reference search's coset action composed along a word is left
    # multiplication by w
    _, action = coset_search_reference(space.group, space.simple_roots, space.subgroup_simple)
    coset_of = {w.perm: i for i, coset in enumerate(members) for w in coset}
    for w in wg:
        assert coset_action_reference(action, w.word, len(reps)) == tuple(
            coset_of[compose(w.perm, r.perm)] for r in reps
        )

    _assert_words_match_perms(space)


def _hp_space(n):
    """HP^n = Sp(n+1)/(Sp(1) x Sp(n)), the Sp(1) on the first coordinate."""
    sub_roots = [(2,) + (0,) * n]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for s in (1, -1) if j > i else (1,):
                r = [0] * (n + 1)
                r[i] += 1
                r[j] += s
                sub_roots.append(tuple(r))
    return make_space("Sp(%d)" % (n + 1), sub_roots, label="HP%d" % n)


@pytest.mark.parametrize("n", [3, 4])
def test_hp_cosets_are_minimal_representatives(n):
    space = _hp_space(n)
    roots, positive = space.group.roots, set(space.group.positive_roots(space.ordering))
    reps = space.cosets.representatives
    assert len(reps) == n + 1
    for r in reps:
        for a in space.subgroup_simple:
            assert roots[r.perm[space.group.root_index[a]]] in positive
    assert [sm.self_conjugate for sm in space.summands] == [True]
    if n == 3:
        # brute force: each representative's word is the shortest in its coset
        by_perm = {w.perm: w for w in space.weyl}
        for r in reps:
            coset = [by_perm[compose(r.perm, h.perm)] for h in space.subgroup_weyl]
            assert r.word == min((len(w.word), w.word) for w in coset)[1]


def _u_blocks_space(n, k):
    """U(n)/(U(k) x U(n-k))."""
    sub_roots = []
    for block in (range(k), range(k, n)):
        for i in block:
            for j in block:
                if i != j:
                    r = [0] * n
                    r[i], r[j] = 1, -1
                    sub_roots.append(tuple(r))
    return make_space("U(%d)" % n, sub_roots)


@pytest.mark.parametrize(
    "build, euler",
    [(lambda: _hp_space(6), 7), (lambda: _u_blocks_space(10, 5), 252)],
    ids=["HP6", "U10-U5xU5"],
)
def test_large_quotients_cost_their_cosets(build, euler):
    # |W| is 2^7 7! and 10!, both above the cap: the search visits cosets only
    start = time.perf_counter()
    space = build()
    assert len(space.cosets) == euler
    assert space.summands
    assert len(space.coset_root_images) == euler
    assert time.perf_counter() - start < 1


def test_oversized_quotient_refused_before_any_reflection(monkeypatch):
    def refuse(self, alpha):
        raise AssertionError("a reflection was built")

    monkeypatch.setattr(GroupData, "reflection_perm", refuse)
    # U(12)/T has 12! = 479001600 cosets
    with pytest.raises(InputError, match="479001600 cosets"):
        make_space("U(12)").cosets
