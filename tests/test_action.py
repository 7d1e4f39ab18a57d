"""The transvection action and the small tensor spaces over it."""

import random

from orbifold.action import Vector, act, sym_mul, v1, v2


def test_act_on_v2():
    assert act(1, v2(3)) == Vector(3, 1, 1)


def test_act_fixes_v1():
    for p in (3, 5):
        for i in range(p):
            assert act(i, v1(p)) == v1(p)


def test_act_order_p():
    for p in (3, 5, 7):
        w = Vector(p, 2, 1)
        assert act(p, w) == act(0, w) == w


def test_act_is_homomorphism():
    p = 7
    rng = random.Random(3)
    for _ in range(60):
        i, j = rng.randrange(p), rng.randrange(p)
        w = Vector(p, rng.randrange(p), rng.randrange(p))
        assert act(i, act(j, w)) == act((i + j) % p, w)


def test_act_linear_and_invertible():
    p = 5
    rng = random.Random(5)
    for _ in range(40):
        i = rng.randrange(p)
        u = Vector(p, rng.randrange(p), rng.randrange(p))
        w = Vector(p, rng.randrange(p), rng.randrange(p))
        c = rng.randrange(p)
        assert act(i, u + w) == act(i, u) + act(i, w)
        assert act(i, u.scale(c)) == act(i, u).scale(c)
        assert act(p - i, act(i, u)) == u


def test_action_matrix_has_determinant_one():
    for p in (3, 5):
        for i in range(p):
            c1, c2 = act(i, v1(p)), act(i, v2(p))
            det = (c1.x1 * c2.x2 - c1.x2 * c2.x1) % p
            assert det == 1


def test_sym_mul_cross_term():
    p = 3
    q = sym_mul(v1(p), v2(p))
    assert list(q.q12.coeffs) == [1, 0, 0]
    assert q.q11.is_zero() and q.q22.is_zero()


def test_sym_mul_commutative():
    p = 5
    rng = random.Random(11)
    for _ in range(40):
        u = Vector(p, rng.randrange(p), rng.randrange(p))
        w = Vector(p, rng.randrange(p), rng.randrange(p))
        assert sym_mul(u, w) == sym_mul(w, u)


def test_sym_mul_square_expansion():
    p = 3
    s = v1(p) + v2(p)
    q = sym_mul(s, s)
    assert q.q11.coeffs[0] == 1 and q.q12.coeffs[0] == 2 and q.q22.coeffs[0] == 1


def test_sym_mul_bilinear():
    p = 7
    rng = random.Random(13)
    for _ in range(40):
        u = Vector(p, rng.randrange(p), rng.randrange(p))
        w = Vector(p, rng.randrange(p), rng.randrange(p))
        x = Vector(p, rng.randrange(p), rng.randrange(p))
        assert sym_mul(u + w, x) == sym_mul(u, x) + sym_mul(w, x)
