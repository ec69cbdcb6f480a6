import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from secshap.hebackend import CostMeter, HEParams
from secshap.matrix import ShapeError, matmul_oracle
from secshap.parties import SERVER_A, SERVER_P, Party, Router
from secshap.sharing import (
    M61,
    CodecError,
    FieldParams,
    SharePair,
    SupplyError,
    TripleSupply,
    _LIMB_BITS,
    _LIMB_MASK,
    _LIMB_SHIFTS,
    _MAX_INNER,
    _TURNS,
    _Arena,
    _truncate_shares,
    decode_matrix,
    encode,
    encode_matrix,
    mask_rng,
    reconstruct_int,
    secretsv_headroom_error,
    share_matmul,
    split_masked,
    split_matrix,
)

FIELD = FieldParams()


def open_shares(pair, field=FIELD):
    """The reals a pair of shares stands for, at the codec scale."""
    return decode_matrix(reconstruct_int(pair, field), field, field.frac_bits)


def _metered_router():
    """A router among the two servers and the dealer, on a fresh meter."""
    router = Router(CostMeter(), HEParams())
    for name in (SERVER_P, SERVER_A, "dealer"):
        router.register(Party(name))
    return router


def _dealing_router():
    """A metered router that keeps a copy of the dealer's last send to each server.

    ``router.dealt[SERVER_P]`` is (u', v', w') and ``router.dealt[SERVER_A]``
    is (u'', v'', w''), copied as sent.
    """
    router = _metered_router()
    router.dealt = {}
    send = router.send

    def spy(sender, receiver, payload):
        if sender == "dealer":
            router.dealt[receiver] = tuple(np.array(x, copy=True) for x in payload)
        return send(sender, receiver, payload)

    router.send = spy
    return router


def _entry(dealt, i):
    """Entry i of a stack of dealt shares, or the shares of a single product (i None)."""
    return {server: shares if i is None else tuple(x[i] for x in shares)
            for server, shares in dealt.items()}


def _assert_dealt_w_is_u_v(dealt):
    """w = u @ v in exact integers, rebuilt from the dealer's two sends, entry by entry."""
    (u1, v1, w1), (u2, v2, w2) = (dealt[SERVER_P], dealt[SERVER_A])
    assert all(x.dtype == np.uint64 for x in (u1, v1, w1, u2, v2, w2))
    for x in (u1, v1, w1, u2, v2, w2):
        assert int(x.max(initial=0)) < P61  # every dealt share is a canonical residue
    u, v, w = ((_objects(x) + _objects(y)) % P61 for x, y in ((u1, u2), (v1, v2), (w1, w2)))
    for i in np.ndindex(u.shape[:-2]):
        assert w[i].tolist() == ((u[i] @ v[i]) % P61).tolist()


class TestFieldParams:
    def test_default_prime_is_61_bits(self):
        assert FIELD.prime.bit_length() == 61
        assert secretsv_headroom_error(FIELD.frac_bits) is None

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldParams(prime=2**61 - 3)

    @pytest.mark.parametrize("prime", [7, (1 << 31) - 1, (1 << 89) - 1])
    def test_rejects_other_primes(self, prime):
        with pytest.raises(ValueError, match=r"^prime: only 2\*\*61 - 1 is supported$"):
            FieldParams(prime=prime)

    def test_product_headroom_names_frac_bits(self):
        # a product needs 2 * frac_bits + 9 of the prime's 61 bits
        assert secretsv_headroom_error(26) is None
        assert secretsv_headroom_error(27).startswith("frac_bits:")
        assert "frac_bits <= 26" in secretsv_headroom_error(27)
        with pytest.raises(ValueError, match="^frac_bits:"):
            TripleSupply(FieldParams(frac_bits=27))


class TestCodec:
    def test_integer_round_trip(self):
        f = FieldParams(frac_bits=0)
        assert decode_matrix(encode(12345.0, f), f, f.frac_bits) == 12345.0

    def test_fractional_round_trip(self):
        x = 1.5
        pair = split_matrix(np.array([[x]]), FIELD, mask_rng(0))
        assert abs(open_shares(pair)[0, 0] - x) <= 2**-16

    def test_negative_values(self):
        x = -3.25
        assert abs(decode_matrix(encode(x, FIELD), FIELD, FIELD.frac_bits) - x) <= 2**-16

    def test_overflow_raises(self):
        with pytest.raises(CodecError):
            encode(2.0**60, FIELD)
        with pytest.raises(CodecError):
            encode(float("nan"), FIELD)

    @pytest.mark.parametrize("prime,frac_bits", [((1 << 61) - 1, 16)])
    def test_decode_guards_against_wraparound(self, prime, frac_bits):
        # |x| <= p/4 decodes, on both signs; one past it means a wrapped value
        field = FieldParams(prime, frac_bits)
        dtype = np.uint64
        edge = prime // 4
        inside = np.array([edge, prime - edge], dtype=dtype)
        got = decode_matrix(inside, field, frac_bits)
        assert got.tolist() == [edge / 2**frac_bits, -edge / 2**frac_bits]
        for past in (edge + 1, prime - edge - 1):
            with pytest.raises(CodecError, match="^fixed-point overflow"):
                decode_matrix(np.array([[0, past]], dtype=dtype), field, frac_bits)


    @pytest.mark.parametrize("kind", ["canonical", "unreduced", "int64"])
    def test_signed_representatives(self, kind):
        # canonical uint64 residues skip the reduction; any other integer array takes it
        p = FIELD.prime
        values = [0, 1, p // 2, p // 2 + 1, p - 1] + M61.random(np.random.default_rng(7),
                                                                 (20,)).tolist()
        raw = {
            "canonical": np.array(values, dtype=np.uint64),
            "unreduced": np.array([v + p * (i % 8) for i, v in enumerate(values)],
                                  dtype=np.uint64),  # up to v + 7p, below 2^64
            "int64": np.array([v - p * (i % 2) for i, v in enumerate(values)], dtype=np.int64),
        }[kind]
        got = M61.signed(raw)
        assert got.dtype == np.int64
        assert got.tolist() == [v - p if v > p // 2 else v for v in values]
        assert decode_matrix(raw[:2], FIELD, 0).tolist() == [0.0, 1.0]


class TestSplitReconstruct:
    def test_hand_example(self):
        # pure field arithmetic: secret 5, mask 3 -> shares (3, 2); mask 7 wraps
        pair = split_masked(np.array([5, 5], dtype=np.uint64), np.array([3, 7], dtype=np.uint64),
                            FIELD)
        assert (pair.s_prime.tolist(), pair.s_dprime.tolist()) == ([3, 7], [2, FIELD.prime - 2])
        assert reconstruct_int(pair, FIELD).tolist() == [5, 5]

    def test_zero_secret(self):
        pair = split_matrix(np.array([[0.0]]), FIELD, mask_rng(1))
        assert open_shares(pair)[0, 0] == 0.0

    def test_exact_in_integer_field(self):
        values = [0, 1, FIELD.prime - 1, 123456789]
        masks = M61.random(np.random.default_rng(2), (len(values),))
        pair = split_masked(np.array(values, dtype=np.uint64), masks, FIELD)
        assert reconstruct_int(pair, FIELD).tolist() == values

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64, object])
    def test_split_matrix_refuses_field_elements(self, dtype):
        # an integer array is already encoded: sharing it again as reals would be wrong
        with pytest.raises(CodecError, match="split_masked"):
            split_matrix(np.array([[1, 2]], dtype=dtype), FIELD, mask_rng(2))

    def test_reconstruct_and_truncate_at_the_share_edges(self):
        # shares (p - 1, p - 1) sum to 2p - 2, and (0, 0) to 0
        p, shift = FIELD.prime, FIELD.frac_bits
        edges = np.array([p - 1, 0], dtype=np.uint64)
        pair = SharePair(edges, edges.copy())
        assert reconstruct_int(pair, FIELD).tolist() == [p - 2, 0]
        cut = _truncate_shares(pair, FIELD)
        assert cut.s_prime.tolist() == [(p - 1) >> shift, 0]
        # p - 1 truncates to p - 0, which must come back as 0
        assert cut.s_dprime.tolist() == [0, p - (p >> shift)]

    def test_matrix_round_trip(self):
        m = np.random.default_rng(3).uniform(-4, 4, size=(3, 5))
        pair = split_matrix(m, FIELD, mask_rng(3))
        assert np.max(np.abs(open_shares(pair) - m)) <= 2**-16

    def test_share_uniformity_proxy(self):
        # chi-square over 16 buckets for repeated splits of one secret
        trials = 8000
        secret = np.full(trials, encode(1.5, FIELD), dtype=np.uint64)
        pair = split_masked(secret, M61.random(np.random.default_rng(9), (trials,)),
                            FIELD)
        buckets = np.bincount([int(s) * 16 // FIELD.prime for s in pair.s_prime], minlength=16)
        expected = trials / 16
        chi2 = float(np.sum((buckets - expected) ** 2 / expected))
        assert chi2 < 40.0  # 15 dof; this is a generous three-sigma-plus bound


class TestShareMatmul:
    def setup_method(self):
        self.rng = random.Random(11)
        self.supply = TripleSupply(FIELD)

    def _share(self, m):
        return split_matrix(m, FIELD, np.random.default_rng(self.rng.getrandbits(64)))

    def test_identity_times_matrix(self):
        b = np.array([[1.5, -2.0], [0.25, 3.0]])
        out = share_matmul(self._share(np.eye(2)), self._share(b), self.supply, FIELD)
        assert np.max(np.abs(open_shares(out) - b)) <= 2 * 2**-16

    def test_scalar_product(self):
        out = share_matmul(
            self._share(np.array([[2.0]])), self._share(np.array([[3.0]])), self.supply, FIELD
        )
        assert abs(open_shares(out)[0, 0] - 6.0) <= 2 * 2**-16

    def test_random_matmul_vs_oracle(self):
        g = np.random.default_rng(4)
        a = g.uniform(-2, 2, size=(4, 4))
        b = g.uniform(-2, 2, size=(4, 2))
        out = share_matmul(self._share(a), self._share(b), self.supply, FIELD)
        want = matmul_oracle(a, b)
        bound = 4 * 2**-16 * float(np.max(np.abs(np.concatenate([a.ravel(), b.ravel()]))))
        assert np.max(np.abs(open_shares(out) - want)) <= bound + 4 * 2**-16

    def test_budget_exhaustion(self):
        small = TripleSupply(FIELD, budget=3)
        a = self._share(np.array([[1.0, 2.0]]))
        b = self._share(np.array([[1.0], [1.0]]))
        small.take((1, 2), (2, 1))  # costs 2
        with pytest.raises(SupplyError):
            share_matmul(a, b, small, FIELD)

    def test_dealer_bytes_metered(self):
        router = _metered_router()
        a, b = self._share(np.ones((2, 3))), self._share(np.ones((3, 2)))
        share_matmul(a, b, self.supply, FIELD, router=router)
        dealt = (6 + 6 + 4) * 8  # u, v and w shares, one uint64 per field element
        opened = (6 + 6) * 8  # e and f
        assert router.meter.bytes_sent == {
            ("dealer", SERVER_P): dealt, ("dealer", SERVER_A): dealt,
            (SERVER_P, SERVER_A): opened, (SERVER_A, SERVER_P): opened,
        }
        assert {name: party.bytes_out for name, party in router.parties.items()} == {
            SERVER_P: opened, SERVER_A: opened, "dealer": 2 * dealt,
        }

    @pytest.mark.parametrize("count", [None, 3], ids=["single", "stacked"])
    @pytest.mark.parametrize("r, k, c", [(2, 49, 369), (3, 100, 5)])
    def test_traffic_per_party_pair(self, count, r, k, c):
        # dealer -> each server: u, v and w shares; each server -> the other: e and f
        lead = () if count is None else (count,)
        g = np.random.default_rng(k)
        a, b = (SharePair(M61.random(g, lead + shape), M61.random(g, lead + shape))
                for shape in ((r, k), (k, c)))
        router = _metered_router()
        share_matmul(a, b, TripleSupply(FIELD), FIELD, router=router)
        n = count or 1
        dealt, opened = 8 * n * (r * k + k * c + r * c), 8 * n * (r * k + k * c)
        assert router.meter.bytes_sent == {
            ("dealer", SERVER_P): dealt, ("dealer", SERVER_A): dealt,
            (SERVER_P, SERVER_A): opened, (SERVER_A, SERVER_P): opened,
        }

    def test_truncation_error_grows_linearly_in_chain_length(self):
        # repeated multiplication by shares of the identity accumulates
        # at most ~one truncation ulp per step
        g = np.random.default_rng(8)
        x = g.uniform(-2, 2, size=(3, 3))
        eye = np.eye(3)
        acc = self._share(x)
        errors = []
        for step in range(1, 7):
            acc = share_matmul(self._share(eye), acc, self.supply, FIELD)
            err = np.max(np.abs(open_shares(acc) - x))
            errors.append(err)
            assert err <= (step + 1) * 2**-16 * 3
        assert errors[-1] <= 6 * 3 * 2**-15


def _reference_share_matmul(a, b, dealt, field):
    """Output shares of the textbook Beaver formulas, in exact Python ints.

    z' = e@f + u'@f + e@v' + w' at P and z'' = u''@f + e@v'' + w'' at A,
    then the local truncation; ``dealt`` holds the dealer's sends to P and
    to A (see ``_dealing_router``).
    """
    p, shift = field.prime, field.frac_bits
    (a1, a2), (b1, b2) = ((_objects(x.s_prime), _objects(x.s_dprime)) for x in (a, b))
    (u1, v1, w1), (u2, v2, w2) = ((_objects(x) for x in dealt[server])
                                  for server in (SERVER_P, SERVER_A))
    e = (a1 - u1 + a2 - u2) % p
    f = (b1 - v1 + b2 - v2) % p
    z_prime = (e @ f + u1 @ f + e @ v1 + w1) % p
    z_dprime = (u2 @ f + e @ v2 + w2) % p
    return (z_prime >> shift).tolist(), ((p - ((p - z_dprime) >> shift)) % p).tolist()


class TestShareMatmulShares:
    """Each server's output share, not only their sum, is pinned."""

    @pytest.mark.parametrize("field", [FIELD], ids=["m61"])
    @pytest.mark.parametrize("shape", [
        (1, 1, 1), (2, 49, 31), (3, 7, 1), (8, 49, 256),  # one inner chunk (k <= 64)
        (2, 100, 31),  # two inner chunks (64 < k <= 128)
        (2, 200, 7),  # four inner chunks (k > 128)
    ])
    @pytest.mark.parametrize("fill", ["random", "max"])
    def test_shares_match_reference(self, field, shape, fill):
        # the all-(p - 1) fill opens e and f at their largest unreduced values
        r, k, c = shape
        g = np.random.default_rng(r * 1000 + k * 10 + c)
        shapes = [(r, k), (r, k), (k, c), (k, c)]
        if fill == "max":
            halves = [np.full(s, field.prime - 1, dtype=np.uint64) for s in shapes]
        else:
            halves = [M61.random(g, s) for s in shapes]
        a, b = SharePair(*halves[:2]), SharePair(*halves[2:])
        router = _dealing_router()
        out = share_matmul(a, b, TripleSupply(field), field, router=router)
        _assert_dealt_w_is_u_v(router.dealt)
        assert out.s_prime.dtype == out.s_dprime.dtype == np.uint64
        assert (out.s_prime.tolist(), out.s_dprime.tolist()) == \
            _reference_share_matmul(a, b, router.dealt, field)


# the products one subset makes, batch by batch and layer by layer, in
# secretsv's stock, wide and deep worlds, plus edge shapes
EVALUATIONS = {
    "stock": [((2, 49), (49, 131)), ((2, 49), (49, 369))],
    "wide": [((2, 49), (49, 31)), ((2, 49), (49, 169))],
    "deep": [((32, 49), (49, 48)), ((16, 33), (33, 48)), ((4, 17), (17, 48)),
             ((32, 49), (49, 52)), ((16, 33), (33, 52)), ((4, 17), (17, 52))],
    "edge": [((1, 1), (1, 1)), ((3, 7), (7, 500)), ((1, 49), (49, 1))],
}


class TestStackedShareMatmul:
    """A dealt stack of triples and stacked products equal one-by-one takes and products."""

    @staticmethod
    def _operands(field, count, shapes, fill, shared_b):
        g = np.random.default_rng(count * 100 + len(shapes))

        def pair(shape):
            if fill == "max":
                return SharePair(*(np.full(shape, field.prime - 1, dtype=np.uint64)
                                   for _ in range(2)))
            return SharePair(M61.random(g, shape), M61.random(g, shape))

        return [(pair((count,) + a), pair(b if shared_b else (count,) + b)) for a, b in shapes]

    @pytest.mark.parametrize("field,count,world", [
        pytest.param(FIELD, count, world, id=f"m61-{count}-{world}")
        for count in (1, 3, 16)
        for world in sorted(EVALUATIONS)
    ])
    @pytest.mark.parametrize("fill", ["random", "max"])
    def test_equals_one_by_one(self, field, count, world, fill):
        shapes = EVALUATIONS[world]
        operands = self._operands(field, count, shapes, fill, shared_b=world == "wide")
        stacked, single = TripleSupply(field), TripleSupply(field)
        stacked_router, single_router = _metered_router(), _metered_router()
        stacked.deal(count, shapes)
        outs = [share_matmul(a, b, stacked, field, router=stacked_router) for a, b in operands]
        for g in range(count):  # the one-by-one order: evaluation, then product
            for (a, b), out in zip(operands, outs):
                b_g = b if b.s_prime.ndim == 2 else SharePair(b.s_prime[g], b.s_dprime[g])
                one = share_matmul(SharePair(a.s_prime[g], a.s_dprime[g]), b_g, single, field,
                                   router=single_router)
                assert out.s_prime.dtype == one.s_prime.dtype == np.uint64
                assert out.s_prime[g].tolist() == one.s_prime.tolist()
                assert out.s_dprime[g].tolist() == one.s_dprime.tolist()
        assert stacked.used == single.used
        assert stacked_router.meter.bytes_sent == single_router.meter.bytes_sent

    def test_undealt_stack_is_drawn_on_take(self):
        # a stacked take with nothing dealt draws its own stack, in the same order
        a = SharePair(*(M61.random(np.random.default_rng(h), (3, 2, 5)) for h in (1, 2)))
        b = SharePair(*(M61.random(np.random.default_rng(h), (3, 5, 4)) for h in (3, 4)))
        dealt, undealt = TripleSupply(FIELD), TripleSupply(FIELD)
        dealt_router, undealt_router = _metered_router(), _metered_router()
        dealt.deal(3, [((2, 5), (5, 4))])
        want = share_matmul(a, b, dealt, FIELD, router=dealt_router)
        got = share_matmul(a, b, undealt, FIELD, router=undealt_router)
        assert got.s_prime.tolist() == want.s_prime.tolist()
        assert got.s_dprime.tolist() == want.s_dprime.tolist()
        assert undealt_router.meter.bytes_sent == dealt_router.meter.bytes_sent

    def test_takes_follow_the_dealt_order(self):
        supply = TripleSupply(FIELD)
        supply.deal(2, [((2, 3), (3, 4)), ((1, 3), (3, 4))])
        with pytest.raises(ShapeError):
            supply.take((2, 1, 3), (2, 3, 4))  # the next dealt product is (2, 3) x (3, 4)
        assert supply.used == 0
        supply.take((2, 2, 3), (2, 3, 4))
        assert supply.used == 2 * 2 * 3 * 4

    @pytest.mark.parametrize("field", [FIELD], ids=["m61"])
    def test_budget_fails_at_the_same_product(self, field):
        shapes = [((2, 5), (5, 7)), ((3, 4), (4, 2)), ((1, 5), (5, 7))]
        count = 3
        costs = [a[0] * a[1] * b[1] for a, b in shapes] * count
        ends = list(itertools.accumulate(costs))
        budgets = sorted({0, 1} | {end + d for end in ends for d in (-1, 0, 1)})
        failures = 0
        for budget in budgets:
            single = TripleSupply(field, budget=budget)
            try:
                for _ in range(count):
                    for a, b in shapes:
                        single.take(a, b)
                expected = None
            except SupplyError as err:
                expected = str(err)
            stacked = TripleSupply(field, budget=budget)
            if expected is None:
                stacked.deal(count, shapes)
                for a, b in shapes:
                    stacked.take((count,) + a, (count,) + b)
            else:
                failures += 1
                with pytest.raises(SupplyError) as got:
                    stacked.deal(count, shapes)
                assert str(got.value) == expected
            assert stacked.used == single.used, budget
        assert 0 < failures < len(budgets)


P61 = (1 << 61) - 1
# edge values first, so every draw can hit 0 and p - 1
ELEMENTS = st.one_of(st.sampled_from([0, 1, P61 - 1]), st.integers(0, P61 - 1))


def _field_array(shape):
    return hnp.arrays(np.uint64, shape, elements=ELEMENTS)


@st.composite
def _matmul_operands(draw):
    r, k, c = (draw(st.integers(1, n)) for n in (4, 40, 4))
    return draw(_field_array((r, k))), draw(_field_array((k, c)))


@st.composite
def _mul_operands(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6))
    return draw(_field_array(shape)), draw(st.one_of(_field_array(shape), ELEMENTS))


def _objects(x):
    return np.asarray(x, dtype=np.uint64).astype(object)


class TestMersenne61Ops:
    """The uint64 fast path against the exact Python-int reference."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_matmul_operands())
    def test_matmul_matches_object_reference(self, operands):
        a, b = operands
        got = M61.matmul(a, b)
        assert got.dtype == np.uint64
        assert got.tolist() == ((_objects(a) @ _objects(b)) % P61).tolist()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_mul_operands())
    def test_entrywise_product_matches_object_reference(self, operands):
        a, b = operands
        got = M61.mul(a, b)
        assert got.dtype == np.uint64
        assert got.tolist() == ((_objects(a) * _objects(b)) % P61).tolist()

    @pytest.mark.parametrize("fill", ["max", "random"])
    def test_matmul_beyond_one_chunk(self, fill):
        # 2^11 + 3 inner terms: sixteen full chunks of the inner axis and a partial one
        k = (1 << 11) + 3
        if fill == "max":
            a = np.full((2, k), P61 - 1, dtype=np.uint64)
            b = np.full((k, 3), P61 - 1, dtype=np.uint64)
        else:
            g = np.random.default_rng(21)
            a = g.integers(0, P61, size=(2, k), dtype=np.uint64)
            b = g.integers(0, P61, size=(k, 3), dtype=np.uint64)
        assert M61.matmul(a, b).tolist() == ((_objects(a) @ _objects(b)) % P61).tolist()

    def test_reduce_edge_values(self):
        edges = [0, 1, P61 - 1, P61, P61 + 1, 2 * P61 - 1, 2 * P61, 1 << 63, (1 << 64) - 1]
        randoms = np.random.default_rng(22).integers(0, 1 << 64, size=500, dtype=np.uint64)
        x = np.concatenate([np.array(edges, dtype=np.uint64), randoms])
        before = x.copy()
        got = M61.reduce(x)
        assert got.dtype == np.uint64
        assert got.tolist() == [v % P61 for v in x.tolist()]
        assert np.array_equal(x, before)  # the argument is left as it was

    @pytest.mark.parametrize("fill", ["max", "random"])
    def test_matmul_at_one_full_chunk(self, fill):
        # 2^14 inner terms: 2^7 full chunks of the inner axis, summed
        k = 1 << 14
        if fill == "max":
            a = np.full((2, k), (1 << 63) - 1, dtype=np.uint64)
            b = np.full((k, 3), (1 << 63) - 1, dtype=np.uint64)
        else:
            g = np.random.default_rng(23)
            a = g.integers(0, P61, size=(2, k), dtype=np.uint64)
            b = g.integers(0, P61, size=(k, 3), dtype=np.uint64)
        assert M61.matmul(a, b).tolist() == ((_objects(a) @ _objects(b)) % P61).tolist()

    @pytest.mark.parametrize("k", [1 << 14, (1 << 14) + 5])
    @pytest.mark.parametrize("fill", ["max", "random"])
    def test_stacked_matmul_at_the_inner_width_limit(self, k, fill):
        # 2^14 inner terms fill whole chunks of the inner axis; 2^14 + 5 leaves a partial one
        if fill == "max":  # full limbs: p - 1 turns into 60 of 61 bits set
            a = np.full((2, 2, k), P61 - 1, dtype=np.uint64)
            b = np.full((2, k, 3), (1 << 64) - 1, dtype=np.uint64)
        else:
            g = np.random.default_rng(k)
            a = g.integers(0, 1 << 64, size=(2, 2, k), dtype=np.uint64)
            b = g.integers(0, 1 << 64, size=(2, k, 3), dtype=np.uint64)
        got = M61.matmul(a, b)
        assert got.shape == (2, 2, 3) and got.dtype == np.uint64
        for g in range(2):
            assert got[g].tolist() == ((_objects(a[g]) @ _objects(b[g])) % P61).tolist()

    @pytest.mark.parametrize("k", [_MAX_INNER, _MAX_INNER + 1])
    @pytest.mark.parametrize("layout", ["plain", "stacked", "broadcast"])
    @pytest.mark.parametrize("fill", ["max", "near_max"])
    def test_matmul_at_the_chunk_edge_with_full_limbs(self, k, layout, fill):
        # max: b = 2^64 - 1 fills both 32-bit halves, and a is 2^64 - 1 unreduced,
        # with one row of p - 1; near_max takes a little off each, so that the sums
        # carry more bits than a float64 holds should a chunk pass 2^53 (uniform
        # fills sum exactly even then)
        top = (1 << 64) - 1
        shape_a, shape_b = {"plain": ((3, k), (k, 4)),
                            "stacked": ((2, 3, k), (2, k, 4)),
                            "broadcast": ((3, k), (2, k, 4))}[layout]
        if fill == "max":
            a = np.full(shape_a, top, dtype=np.uint64)
            a[..., 1, :] = P61 - 1
            b = np.full(shape_b, top, dtype=np.uint64)
        else:
            g = np.random.default_rng(k)
            a = P61 - 1 - g.integers(0, 1 << 12, size=shape_a, dtype=np.uint64)
            b = top - g.integers(0, 1 << 12, size=shape_b, dtype=np.uint64)
        got = M61.matmul(a, b)
        assert got.dtype == np.uint64
        assert got.tolist() == ((_objects(a) @ _objects(b)) % P61).tolist()

    def test_limb_constants_keep_the_float64_product_exact(self):
        halves, limbs = len(_TURNS), len(_LIMB_SHIFTS)
        assert halves * 32 == 64  # b's 32-bit halves cover every uint64
        assert limbs * _LIMB_BITS >= 61  # a's limbs cover every residue
        # a coefficient sums halves * _MAX_INNER products of a limb by a half,
        # and float64 holds every integer below 2^53 exactly
        assert halves * _MAX_INNER * _LIMB_MASK * (2**32 - 1) < 2**53
        # a Beaver chunk of width _MAX_INNER // 2 sums two such products per output,
        # and its planes of v' + v'' hold word sums below 2^33
        assert 2 * halves * (_MAX_INNER // 2) * _LIMB_MASK * (2**32 - 1) < 2**53
        assert halves * (_MAX_INNER // 2) * _LIMB_MASK * 2 * (2**32 - 1) < 2**53
        # the rotated coefficients, each below 2^61, sum without wrapping a uint64
        assert limbs * 2**61 < 2**64
        # so do those of any uint64 coefficient: rotating by 13 i adds below 2^(13 i + 3)
        assert limbs * (2**61 + 2**(_LIMB_BITS * (limbs - 1) + 3)) < 2**64

    def test_matmul_broadcasts_a_shared_operand(self):
        g = np.random.default_rng(25)
        a = g.integers(0, P61, size=(32, 49), dtype=np.uint64)
        b = g.integers(0, P61, size=(3, 49, 52), dtype=np.uint64)
        got = M61.matmul(a, b)
        assert [x.tolist() for x in got] == [M61.matmul(a, x).tolist() for x in b]
        assert got[1].tolist() == ((_objects(a) @ _objects(b[1])) % P61).tolist()

    @pytest.mark.parametrize("shape", [
        (1, 1, 1), (1, 49, 7), (5, 49, 1), (1, 3, 1),  # a row or a column
        (2, 49, 31), (2, 49, 169), (4, 49, 256), (8, 49, 256),  # secretsv's products
    ])
    def test_matmul_shapes(self, shape):
        r, k, c = shape
        g = np.random.default_rng(r * 1000 + k * 10 + c)
        a = g.integers(0, P61, size=(r, k), dtype=np.uint64)
        b = g.integers(0, P61, size=(k, c), dtype=np.uint64)
        got = M61.matmul(a, b)
        assert got.shape == (r, c) and got.dtype == np.uint64
        assert got.tolist() == ((_objects(a) @ _objects(b)) % P61).tolist()

    def test_matmul_accepts_unreduced_operands_below_2_63(self):
        # share_matmul multiplies e + u' (up to 2p - 2) without reducing it
        g = np.random.default_rng(24)
        edges = np.array([P61, 2 * P61 - 2, 2 * P61, (1 << 63) - 1], dtype=np.uint64)
        a = g.integers(0, 1 << 63, size=(6, 49), dtype=np.uint64)
        b = g.integers(0, 1 << 63, size=(49, 5), dtype=np.uint64)
        a[:, :4] = edges
        b[:4, 0] = edges
        assert M61.matmul(a, b).tolist() == ((_objects(a) @ _objects(b)) % P61).tolist()

    @pytest.mark.parametrize("terms", range(1, 9))
    def test_weighted_sum_equals_entrywise_loop(self, terms):
        # weight rows summing up to 2^31 - 1, over any uint64 elements
        top = (1 << 31) - 1
        g = np.random.default_rng(terms)
        weights = g.integers(0, top // terms + 1, size=(4, terms), dtype=np.uint64)
        weights[0] = 0
        weights[0, -1] = top  # one full weight
        weights[1] = top // terms
        weights[1, 0] += top % terms  # a row summing to exactly 2^31 - 1
        x = g.integers(0, 1 << 64, size=(terms, 3, 5), dtype=np.uint64)
        x[:, 0, :3] = [0, P61 - 1, (1 << 64) - 1]
        x[-1, 1] = (1 << 64) - 1

        def loop(row):
            acc = np.zeros((3, 5), dtype=np.uint64)
            for w, term in zip(row, x):
                acc = M61.reduce(acc + M61.mul(w, term))
            return acc.tolist()

        for row in weights:  # vector weights
            got = M61.weighted_sum(row, x)
            assert got.dtype == np.uint64 and got.shape == (3, 5)
            assert got.tolist() == loop(row)
        got = M61.weighted_sum(weights, x)  # matrix weights
        assert got.dtype == np.uint64 and got.shape == (4, 3, 5)
        assert got.tolist() == [loop(row) for row in weights]


class TestScratchArena:
    """Products that share one arena give every result exactly, and leave it alone."""

    @staticmethod
    def _products():
        g = np.random.default_rng(31)

        def field(*shape):
            return g.integers(0, 1 << 64, size=shape, dtype=np.uint64)

        shared_b = field(49, 200)
        return [
            (field(4, 8, 49), field(4, 49, 300)),  # big, stacked
            (field(2, 3), field(3, 4)),  # small
            (field(3, 5, 49), np.broadcast_to(shared_b, (3, 49, 200))),  # broadcast b
            (field(2, _MAX_INNER + 45), field(_MAX_INNER + 45, 3)),  # past one chunk
            (field(4, 8, 49), field(4, 49, 300).T.copy().T),  # big again, b column-major
        ]

    def test_mixed_products_on_one_arena(self):
        arena = _Arena()
        products = self._products()
        kept = []
        for sweep in range(2):
            for a, b in products:
                out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                               + (a.shape[-2], b.shape[-1]), dtype=np.uint64)
                got = M61._matmul(a, b, out, arena)
                assert arena.top == 0  # the product gave back every temporary
                arena.rewind(0)
                kept.append((a, b, got, got.copy()))
            if sweep == 0:
                arena.fit()
                grown = arena._buf
        assert grown.nbytes > 0  # the first sweep ran on fresh pieces and measured them
        assert arena._buf is grown  # the second sweep fit the buffer the first one measured
        for a, b, got, first in kept:
            assert np.array_equal(got, first)
            want = _objects(a) @ _objects(b) % P61
            assert got.tolist() == want.tolist()

    def test_shares_and_triples_survive_later_products(self):
        # one supply, so one arena, through big, small, broadcast and wide products;
        # a twin supply with the same seed hands out the same triples, and the
        # dealer's sends are kept as sent
        supply, twin = TripleSupply(FIELD), TripleSupply(FIELD)
        g = np.random.default_rng(32)
        kept = []
        for a, b in self._products():
            if b.strides[0] == 0:
                b = b[0]  # one (k, c) matrix that every product of the stack shares
            a_pair = SharePair(M61.reduce(a), M61.random(g, a.shape))
            b_pair = SharePair(M61.reduce(b), M61.random(g, b.shape))
            router = _dealing_router()
            out = share_matmul(a_pair, b_pair, supply, FIELD, router=router)
            triple = twin.take(a.shape, a.shape[:-2] + b.shape[-2:])
            halves = [triple.u.s_prime, triple.u.s_dprime, triple.v.s_prime, triple.v.s_dprime,
                      triple.w_prime]
            kept.append((a_pair, b_pair, router.dealt, halves, [h.copy() for h in halves], out,
                         (out.s_prime.copy(), out.s_dprime.copy())))
        for a_pair, b_pair, dealt, halves, copies, out, (s_prime, s_dprime) in kept:
            assert all(np.array_equal(h, x) for h, x in zip(copies, halves))
            (u1, v1, w1), (u2, v2, _) = dealt[SERVER_P], dealt[SERVER_A]
            assert all(np.array_equal(h, x) for h, x in zip(halves, (u1, u2, v1, v2, w1)))
            _assert_dealt_w_is_u_v(dealt)
            assert np.array_equal(out.s_prime, s_prime) and np.array_equal(out.s_dprime, s_dprime)
            if out.s_prime.ndim == 2:
                want = _reference_share_matmul(a_pair, b_pair, dealt, FIELD)
            else:
                stacks = [_reference_share_matmul(
                    *(SharePair(x.s_prime[i], x.s_dprime[i]) if x.s_prime.ndim == 3 else x
                      for x in (a_pair, b_pair)), _entry(dealt, i), FIELD)
                          for i in range(out.s_prime.shape[0])]
                want = ([z[0] for z in stacks], [z[1] for z in stacks])
            assert (out.s_prime.tolist(), out.s_dprime.tolist()) == want

    def test_warm_stacked_product_allocates_less_than_one_operand(self):
        # stock's products: a chunk of 4 models (2, 49) times its widest batch input (49, 369)
        g = np.random.default_rng(33)
        supply = TripleSupply(FIELD)
        a, b = (SharePair(M61.random(g, shape), M61.random(g, shape))
                for shape in ((4, 2, 49), (4, 49, 369)))
        supply.deal(4, [((2, 49), (49, 369))] * 2)
        share_matmul(a, b, supply, FIELD)  # on fresh pieces, which the next deal fits
        share_matmul(a, b, supply, FIELD)
        supply.deal(4, [((2, 49), (49, 369))])
        assert supply._arena._buf.nbytes > 0
        tracemalloc.start()
        try:
            share_matmul(a, b, supply, FIELD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < b.s_prime.nbytes, peak

    @pytest.mark.parametrize("count, r, k, c", [
        (3, 2, 49, 369), (2, 1, 100, 50), (1, 2, 150, 300), (2, 5, 49, 200)])
    def test_broadcast_b_gives_the_textbook_shares(self, count, r, k, c):
        # one (k, c) matrix b that every product of the stack shares, chunked or not
        g = np.random.default_rng(36)
        a = SharePair(M61.random(g, (count, r, k)), M61.random(g, (count, r, k)))
        b = SharePair(M61.random(g, (k, c)), M61.random(g, (k, c)))
        router = _dealing_router()
        out = share_matmul(a, b, TripleSupply(FIELD), FIELD, router=router)
        _assert_dealt_w_is_u_v(router.dealt)
        for i in range(count):
            want = _reference_share_matmul(
                SharePair(a.s_prime[i], a.s_dprime[i]), b, _entry(router.dealt, i), FIELD)
            assert (out.s_prime[i].tolist(), out.s_dprime[i].tolist()) == want

    @pytest.mark.parametrize("count, r, k, c", [
        (4, 2, 49, 369), (5, 32, 49, 52), (3, 16, 33, 48), (2, 4, 17, 31),  # stock, deep
        (1, 1, 1, 1), (3, 5, 70, 20), (2, 3, 200, 7), (2, 40, 130, 3),  # chunked inner axis
        (2, 1, 100, 50), (1, 2, 150, 300),  # split planes over chunks
    ])
    def test_second_deal_fits_the_arena_to_the_first_product(self, count, r, k, c):
        # the buffer grows once, at the deal after the first product, to exactly its deepest top
        g = np.random.default_rng(34)
        supply = TripleSupply(FIELD)
        arena, tops = supply._arena, []
        real_alloc = arena.alloc

        def alloc(shape, dtype=np.uint64):
            piece = real_alloc(shape, dtype)
            tops.append(arena.top)
            return piece

        arena.alloc = alloc
        a, b = (SharePair(M61.random(g, shape), M61.random(g, shape))
                for shape in ((count, r, k), (count, k, c)))
        supply.deal(count, [((r, k), (k, c))])
        share_matmul(a, b, supply, FIELD)
        assert arena._buf.nbytes == 0  # the first product ran on fresh pieces
        deepest = max(tops)
        supply.deal(count, [((r, k), (k, c))])
        buf = arena._buf
        assert buf.nbytes == deepest
        share_matmul(a, b, supply, FIELD)
        assert arena._buf is buf and max(tops) == deepest


class TestDefaultFieldIsUint64:
    def test_split_matrix_reconstructs_exactly(self):
        m = np.random.default_rng(5).uniform(-4, 4, size=(3, 7))
        enc = encode_matrix(m, FIELD)
        pair = split_matrix(m, FIELD, np.random.default_rng(5))
        assert enc.dtype == pair.s_prime.dtype == pair.s_dprime.dtype == np.uint64
        assert reconstruct_int(pair, FIELD).tolist() == enc.tolist()
        assert enc.tolist() == [[encode(x, FIELD) for x in row] for row in m]

    def test_triples_are_uint64_and_consistent(self):
        # what take hands out is uint64, and so is what the dealer sends, with w = u @ v
        triple = TripleSupply(FIELD).take((2, 3), (3, 4))
        halves = [triple.u.s_prime, triple.u.s_dprime, triple.v.s_prime, triple.v.s_dprime,
                  triple.w_prime]
        assert all(x.dtype == np.uint64 for x in halves)
        g = np.random.default_rng(6)
        a, b = (SharePair(M61.random(g, s), M61.random(g, s)) for s in ((2, 3), (3, 4)))
        router = _dealing_router()
        share_matmul(a, b, TripleSupply(FIELD), FIELD, router=router)
        _assert_dealt_w_is_u_v(router.dealt)
