"""Almost complex structures, the Nijenhuis tensor, metrics, Lee forms and
the classifier; and the Hodge laws of the oracle's metric route to the Lee
form.

The oracle's sign conventions are pinned by adjointness
<d a, b> = <a, delta b> rather than by any table; the spot checks here
freeze the values the bulk fuzz in test_properties.py re-derives.
"""

import re
from fractions import Fraction

import pytest

from nilforms import (
    AlmostComplexStructure,
    DegenerateMetric,
    DimensionMismatch,
    InnerProduct,
    InternalInvariantBreach,
    InvalidParameter,
    NotAlmostComplex,
    NotHermitian,
    WrongDimension,
    ce_d,
    classify_hermitian,
    format_form,
    lee_form,
    nijenhuis,
    parse_salamon,
    wedge,
)
from nilforms import linalg
from nilforms.hermitian import _hermitian_pair, _is_parallel

from conftest import euclidean_metric
from oracles import (
    as_fraction,
    reference_codifferential,
    reference_form_pairing,
    reference_koszul_table,
    reference_lee_form,
    reference_pairing,
    reference_star_raw,
    sympy_matrix,
)

ROTATION_J = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))


def test_inner_product_validation():
    with pytest.raises(InvalidParameter):
        InnerProduct([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(DegenerateMetric):
        InnerProduct([[1, 2], [2, 1]])  # indefinite


@pytest.mark.parametrize("gram,message", [
    ([[0]], "leading principal minor 1 is 0"),
    ([[1, 1], [1, 1]], "leading principal minor 2 is 0"),
    ([[1, 2], [2, 1]], "leading principal minor 2 is -3"),
    ([[2, 1, 1], [1, 1, 1], [1, 1, 0]], "leading principal minor 3 is -1"),
    ([[2, 1, 0], [1, 1, 0], [0, 0, "-1/3"]], "leading principal minor 3 is -1/3"),
    ([[1, 0, 0, 5], [0, -1, 0, 0], [0, 0, 1, 0], [5, 0, 0, 1]],
     "leading principal minor 2 is -1"),
    # leading minors before the bad one that are not 1, so the minor is not
    # just the last pivot
    ([[2, 1], [1, -1]], "leading principal minor 2 is -3"),
    ([[2, 1, 0], [1, 3, 1], [0, 1, -1]], "leading principal minor 3 is -7"),
], ids=["zero-k1", "zero-k2", "negative-k2", "negative-k3", "rational-k3", "first-failure",
        "scaled-k2", "scaled-k3"])
def test_degenerate_metric_reports_the_first_bad_minor(gram, message):
    with pytest.raises(DegenerateMetric) as excinfo:
        InnerProduct(gram)
    assert str(excinfo.value) == f"{message}; metric is not positive definite"


def test_acs_validation():
    acs = AlmostComplexStructure(ROTATION_J)
    assert tuple(row[0] for row in acs.matrix) == (0, 1, 0, 0)
    with pytest.raises(NotAlmostComplex):
        AlmostComplexStructure(((1, 0), (0, 1)))


@pytest.mark.parametrize("matrix", [
    ((1, 0), (0, 1)),
    ((0, 0), (0, 0)),
    ((0, -1), (1, 1)),
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)),
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 1)),
    ((0, -2, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    ((0,),),
], ids=["identity", "zero", "trace", "zero-column", "one-entry", "scaled", "dim1"])
def test_acs_rejects_every_non_square_root_of_minus_one(matrix):
    with pytest.raises(NotAlmostComplex) as excinfo:
        AlmostComplexStructure(matrix)
    assert str(excinfo.value) == "J^2 != -Id"


def test_acs_accepts_a_square_root_of_minus_one():
    j = ((1, -2, 0, 0), (1, -1, 0, 0), (0, 0, 0, Fraction(-1, 2)), (0, 0, 2, 0))
    assert AlmostComplexStructure(j).matrix == tuple(
        tuple(Fraction(v) for v in row) for row in j)
    assert AlmostComplexStructure(()).dim == 0


def test_nijenhuis_vanishes_where_it_should(torus, kt):
    assert nijenhuis(torus, ROTATION_J).is_integrable
    assert nijenhuis(kt, ROTATION_J).is_integrable


def test_nijenhuis_obstruction_on_the_filiform(filiform):
    tensor = nijenhuis(filiform, ROTATION_J)
    assert not tensor.is_integrable
    assert tensor.component(1, 3) == (0, 0, 0, 1)
    assert tensor.component(3, 1) == (0, 0, 0, -1)
    assert tensor.component(2, 2) == (0, 0, 0, 0)


def test_nijenhuis_tensors_compare_by_components(torus, kt, filiform):
    flat = nijenhuis(torus, ROTATION_J)
    obstructed = nijenhuis(filiform, ROTATION_J)
    assert flat.dim == obstructed.dim == 4
    assert flat != obstructed
    assert flat == nijenhuis(kt, ROTATION_J)
    assert hash(flat) == hash(nijenhuis(kt, ROTATION_J))
    assert obstructed == nijenhuis(filiform, ROTATION_J)


def test_form_pairing_is_the_gram_minor(kt):
    g = InnerProduct([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])
    a = kt.form({(1, 2): 1})
    # <e12, e12> = det of the (1,2)x(1,2) minor of g^{-1}
    inv = sympy_matrix(g.matrix).inv()
    expected = as_fraction(inv[0, 0] * inv[1, 1] - inv[0, 1] * inv[1, 0])
    assert reference_form_pairing(g, a, a) == expected


def test_hodge_star_euclidean_table(torus):
    # det g = 1, so the raw star is the honest one
    g = euclidean_metric(4)
    assert reference_star_raw(torus, g, torus.form({(1, 2): 1})) \
        == torus.form({(3, 4): 1})
    assert reference_star_raw(torus, g, torus.one()) == torus.basis_form(1, 2, 3, 4)
    assert reference_star_raw(torus, g, torus.basis_form(1, 2, 3, 4)) == torus.one()
    assert reference_star_raw(torus, g, torus.basis_form(1, 2, 3)) == torus.covector(4)


def test_hodge_star_double_application(torus):
    # star_raw star_raw = (-1)^(k(n-k)) / det g, here det g = 36
    g = InnerProduct([[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 9]])
    for degree in (0, 1, 2, 3, 4):
        for mono in torus.monomials(degree):
            form = torus.basis_form(*mono)
            twice = reference_star_raw(torus, g, reference_star_raw(torus, g, form))
            sign = (-1) ** (degree * (4 - degree))
            assert twice == form.scale(Fraction(sign, 36))


def test_codifferential_on_kt(kt):
    g = euclidean_metric(4)
    omega = kt.form({(1, 2): 1, (3, 4): 1})
    assert reference_codifferential(kt, g, omega) == kt.covector(4)
    assert reference_codifferential(kt, g, kt.one()).is_zero


def test_classifier_on_a_non_unimodular_algebra(solvable_nonunimodular):
    # the Lee form is pointwise linear algebra, so unimodularity is not asked
    g = euclidean_metric(4)
    result = classify_hermitian(solvable_nonunimodular, g, ROTATION_J)
    assert result.lee == solvable_nonunimodular.covector(1).scale(2)
    assert result.lee == reference_lee_form(solvable_nonunimodular, g, ROTATION_J)
    assert result.label == "lck" and result.genuine_lee and not result.lee_parallel


def test_adjointness_spot_check(kt):
    g = InnerProduct([[1, 0, 0, 0], [0, 2, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])
    alpha = kt.form({(1,): 1, (3,): -2})
    beta = kt.form({(1, 2): 1, (2, 3): Fraction(1, 3), (1, 4): -1})
    assert reference_form_pairing(g, ce_d(alpha), beta) \
        == reference_form_pairing(g, alpha, reference_codifferential(kt, g, beta))


def test_fundamental_form_is_the_rotation_pairing(kt):
    omega = _hermitian_pair(kt, euclidean_metric(4), ROTATION_J)[2]
    assert omega == kt.form({(1, 2): 1, (3, 4): 1})


def test_compatibility_gate(kt):
    squeezed = InnerProduct([[2, 0, 0, 0], [0, 1, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotHermitian):
        _hermitian_pair(kt, squeezed, ROTATION_J)


def test_compatibility_reads_the_diagonal_of_gj(kt):
    # with G = Id, W = G J = J; each block squares to -Id and is skew off the
    # diagonal (-5/4 against 5/4), so only W's diagonal 3/4, -3/4 shows that
    # J^T G J != G (its first entry is 17/8)
    acs = ((Fraction(3, 4), Fraction(-5, 4), 0, 0), (Fraction(5, 4), Fraction(-3, 4), 0, 0),
           (0, 0, 0, -1), (0, 0, 1, 0))
    with pytest.raises(NotHermitian, match="^metric is not J-invariant"):
        _hermitian_pair(kt, euclidean_metric(4), acs)


GUARDS = {
    "acs_not_square": (DimensionMismatch, "J must be square",
                       lambda kt: AlmostComplexStructure([[0, -1], [1, 0, 0]])),
    "acs_square": (NotAlmostComplex, "J^2 != -Id",
                   lambda kt: AlmostComplexStructure([[0, 1], [1, 0]])),
    "nijenhuis_size": (DimensionMismatch, "J has the wrong size",
                       lambda kt: nijenhuis(kt, [[0, -1], [1, 0]])),
    "gram_not_square": (DimensionMismatch, "Gram matrix must be square",
                        lambda kt: InnerProduct([[1, 0], [0, 1, 0]])),
    "pair_metric_size": (DimensionMismatch, "metric dimension does not match",
                         lambda kt: _hermitian_pair(kt, [[1, 0], [0, 1]], ROTATION_J)),
    "pair_acs_size": (DimensionMismatch, "J has the wrong size",
                      lambda kt: _hermitian_pair(kt, euclidean_metric(4), [[0, -1], [1, 0]])),
    # the dimension is refused before the metric or J is read
    "lee_odd": (WrongDimension, "the Lee form needs even dimension >= 4",
                lambda kt: lee_form(parse_salamon("(0,0,12)"), euclidean_metric(3), ROTATION_J)),
    "classify_dim2": (WrongDimension, "Hermitian classification needs even dimension >= 4",
                      lambda kt: classify_hermitian(parse_salamon("(0,0)"), euclidean_metric(2),
                                                    [[0, -1], [1, 0]])),
}


@pytest.mark.parametrize("error,message,call", GUARDS.values(), ids=GUARDS)
def test_hermitian_guards_raise_their_class(kt, error, message, call):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call(kt)


def test_a_form_that_is_not_closed_is_not_parallel_even_with_a_killing_dual():
    # on the Heisenberg algebra X_3 is central, so ad_T = 0 for the dual
    # T = X_3 of x3, which is a Killing field; but dx3 = x1^x2 != 0
    heisenberg = parse_salamon("(0,0,12)")
    assert not _is_parallel(heisenberg, euclidean_metric(3), heisenberg.covector(3))
    torus = parse_salamon("(0,0,0)")
    assert _is_parallel(torus, euclidean_metric(3), torus.covector(3))


def test_lee_form_on_kt(kt):
    theta = lee_form(kt, euclidean_metric(4), ROTATION_J)
    assert theta == kt.covector(3).scale(-1)
    omega = _hermitian_pair(kt, euclidean_metric(4), ROTATION_J)[2]
    assert ce_d(omega) == wedge(theta, omega)


def test_lee_form_vanishes_on_the_torus(torus):
    assert lee_form(torus, euclidean_metric(4), ROTATION_J).is_zero


def test_a_lee_form_with_no_preimage_is_a_breach(kt, monkeypatch):
    # w^(m-1) ^ . is onto the (2m-1)-forms for a nondegenerate w, so a
    # missing solution can only be a fault of the solve
    monkeypatch.setattr(linalg, "preimage", lambda columns, target: None)
    with pytest.raises(InternalInvariantBreach, match="^no Lee form"):
        lee_form(kt, euclidean_metric(4), ROTATION_J)


# the Levi-Civita connection of the Koszul formula, tabulated by the oracle
# behind reference_lee_parallel: nabla[(i, j)] is nabla_{X_i} X_j


def test_koszul_connection_on_kt(kt):
    nabla = reference_koszul_table(kt, euclidean_metric(4))
    assert nabla[(1, 2)] == (0, 0, 0, Fraction(-1, 2))
    assert nabla[(1, 4)] == (0, Fraction(1, 2), 0, 0)


def test_koszul_connection_is_flat_on_abelian(torus):
    nabla = reference_koszul_table(torus, euclidean_metric(4))
    for i in range(1, 5):
        for j in range(1, 5):
            assert all(v == 0 for v in nabla[(i, j)])


def test_koszul_torsion_and_metric_compatibility(kt, filiform):
    for algebra in (kt, filiform):
        g = InnerProduct([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1],
                          [0, 0, 1, 2]])
        nabla = reference_koszul_table(algebra, g)
        n = algebra.dim
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                torsion = tuple(
                    nabla[(i, j)][r] - nabla[(j, i)][r]
                    for r in range(n))
                assert torsion == algebra.bracket(i, j)
        # metric parallel: g(nabla_i X_j, X_l) + g(X_j, nabla_i X_l) = 0
        basis = [tuple(Fraction(1) if t == r else Fraction(0)
                       for t in range(n)) for r in range(n)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for l in range(1, n + 1):
                    assert reference_pairing(g, nabla[(i, j)], basis[l - 1]) \
                        + reference_pairing(g, basis[j - 1], nabla[(i, l)]) == 0


def test_classifier_on_the_torus(torus):
    result = classify_hermitian(torus, euclidean_metric(4), ROTATION_J)
    assert result.label == "kahler"
    assert result.kahler and not result.vaisman
    assert result.lee.is_zero
    # the conformal identity holds trivially with theta = 0, so lck rides along
    assert result.lck


def test_classifier_on_kt(kt):
    result = classify_hermitian(kt, euclidean_metric(4), ROTATION_J)
    assert result.label == "vaisman"
    assert result.vaisman and result.lck and not result.kahler
    assert result.genuine_lee and result.lee_parallel
    assert result.lee == kt.covector(3).scale(-1)


def test_classifier_on_the_filiform(filiform):
    result = classify_hermitian(filiform, euclidean_metric(4), ROTATION_J)
    assert result.label == "not_integrable"
    assert not result.integrable and not result.lck


def test_classifier_labels_an_integrable_pair_with_an_open_lee_form():
    # J is integrable here and d(w) = theta ^ w holds, but theta is not closed
    algebra = parse_salamon("(0,0,-2*12-23,-24)")
    result = classify_hermitian(algebra, euclidean_metric(4), ROTATION_J)
    assert result.label == "integrable_non_lck"
    assert result.integrable and result.identity_holds and not result.lee_closed
    assert not (result.kahler or result.lck or result.vaisman)
    assert format_form(result.lee) == "-2*x2 - 2*x4"


def test_classifier_is_conformally_stable(kt):
    base = classify_hermitian(kt, euclidean_metric(4), ROTATION_J)
    scaled_gram = [[4 * v for v in row]
                   for row in euclidean_metric(4).matrix]
    scaled = classify_hermitian(kt, InnerProduct(scaled_gram), ROTATION_J)
    for flag in ("integrable", "kahler", "lck", "vaisman", "label"):
        assert getattr(base, flag) == getattr(scaled, flag)
    assert base.lee == scaled.lee
