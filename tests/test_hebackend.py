import tracemalloc

import numpy as np
import pytest

from secshap.hebackend import (
    BackendError,
    CipherVector,
    CostMeter,
    CostWeights,
    HEContext,
    HEParams,
    KeyMismatchError,
    ciphertext_bytes,
    generate_keypair,
)


@pytest.fixture
def ctx():
    return HEContext(HEParams(slot_count=2048, noise_stddev=0.0, seed=1))


@pytest.fixture
def keys():
    return generate_keypair("t")


class TestParams:
    def test_slot_count_power_of_two(self):
        with pytest.raises(BackendError):
            HEParams(slot_count=100)
        HEParams(slot_count=16)

    def test_negative_noise_rejected(self):
        with pytest.raises(BackendError):
            HEParams(noise_stddev=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, bad):
        with pytest.raises(BackendError, match="noise_stddev"):
            HEParams(noise_stddev=bad)


P = (1 << 61) - 1  # the field prime: the plaintext modulus of integer slots


def decrypt_ints(ctx, ct, count, key):
    """The first ``count`` slots of one exact-integer ciphertext."""
    return ctx.decrypt_stack(ct, (1, count), (1, count), key)[0]


class TestEncryptDecrypt:
    def test_small_matrix_fits_one_ciphertext(self, ctx, keys):
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        ct = ctx.encrypt_slots(m.reshape(-1), keys.public)
        assert np.array_equal(ct.slots[:6], [1, 2, 3, 4, 5, 6])
        assert np.all(ct.slots[6:] == 0)
        assert ctx.meter.enc == 1

    def test_round_trip_exact_without_noise(self, ctx, keys):
        m = np.random.default_rng(3).normal(size=(5, 7))
        back = ctx.decrypt_stack(ctx.encrypt_slots(m.reshape(-1), keys.public), (5, 7),
                                 (5, 7), keys.private)
        assert np.array_equal(back, m)
        assert ctx.meter.dec == 1

    def test_key_mismatch_raises(self, ctx, keys):
        other = generate_keypair("other")
        ct = ctx.encrypt_slots([1], keys.public)
        with pytest.raises(KeyMismatchError):
            ctx.decrypt_stack(ct, (1, 1), (1, 1), other.private)

    def test_draws_block_of_wrong_size_rejected(self, keys):
        ctx = HEContext(HEParams(slot_count=8, noise_stddev=0.01, seed=1))
        ct = ctx.encrypt_slots(np.ones((2, 8)), keys.public)
        with pytest.raises(BackendError, match="holds 5 draws, expected 16"):
            ctx.decrypt_stack(ct, (2, 4), (2, 4), keys.private, draws=np.zeros(5))
        out = ctx.decrypt_stack(ct, (2, 4), (2, 4), keys.private, draws=np.zeros(16))
        assert np.array_equal(out, np.ones((2, 2, 4)))

    def test_integer_slots_are_exact(self, ctx, keys):
        # slots hold field elements mod the plaintext modulus p, exactly
        elems = [P - 1, P - 2, 1, 0, (1 << 60) + 12345]
        ct = ctx.encrypt_int_slots(elems, keys.public)
        back = decrypt_ints(ctx, ct, 5, keys.private)
        assert back.tolist() == elems
        prod = ctx.he_mult(ct, np.array(elems[::-1], dtype=np.uint64))
        total = ctx.he_add(prod, ct)
        got = decrypt_ints(ctx, total, 5, keys.private)
        assert got.tolist() == [(a * b + a) % P for a, b in zip(elems, elems[::-1])]


class TestOps:
    def test_mult_by_ones_is_identity_and_metered_c2p(self, ctx, keys):
        ct = ctx.encrypt_slots([1.5, -2.0, 0.25], keys.public)
        out = ctx.he_mult(ct, np.ones(2048))
        assert np.array_equal(out.slots[:3], [1.5, -2.0, 0.25])
        assert ctx.meter.hmult_c2p == 1
        assert ctx.meter.hmult_c2c == 0

    def test_add_negation_gives_zero(self, ctx, keys):
        v = np.array([3.0, -1.0, 2.5])
        a = ctx.encrypt_slots(v, keys.public)
        b = ctx.encrypt_slots(-v, keys.public)
        out = ctx.he_add(a, b)
        assert np.all(out.slots == 0)

    def test_c2c_metering(self, ctx, keys):
        a = ctx.encrypt_slots([2.0], keys.public)
        b = ctx.encrypt_slots([3.0], keys.public)
        out = ctx.he_mult(a, b)
        assert out.slots[0] == 6.0
        assert ctx.meter.hmult_c2c == 1

    def test_fold_meters_the_parties_folds(self, ctx, keys):
        folded = [(3 * 2**70 + 1) % P, P - 5]
        ct = ctx.fold_int_slots(folded, keys.public, terms=3, copies=2)
        assert decrypt_ints(ctx, ct, 2, keys.private).tolist() == folded
        assert ct.key_id == keys.public.key_id and ct.width == 2048
        assert (ctx.meter.hmult_c2p, ctx.meter.hadd, ctx.meter.enc) == (6, 4, 0)

    def test_short_plaintext_pads_to_the_ciphertext_width(self, keys):
        # a ciphertext storing 4 of 8 slots takes a 3-value plaintext padded to 4
        ctx = HEContext(HEParams(slot_count=8))
        ct = ctx.encrypt_slots([1.0, 2.0, 3.0], keys.public, width=4)
        assert ctx.he_mult(ct, [2.0, 2.0, 2.0]).slots.tolist() == [2.0, 4.0, 6.0, 0.0]
        assert ctx.he_add(ct, [1.0, 1.0]).slots.tolist() == [2.0, 3.0, 3.0, 0.0]
        stack = ctx.encrypt_slots(np.ones((2, 3)), keys.public, width=4)
        dot = ctx.he_dot(stack, [[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        assert dot.slots.tolist() == [2.0, 3.0, 4.0, 0.0]

    def test_cross_context_ops_rejected(self, ctx, keys):
        other = generate_keypair("x")
        a = ctx.encrypt_slots([1.0], keys.public)
        b = ctx.encrypt_slots([1.0], other.public)
        with pytest.raises(KeyMismatchError):
            ctx.he_add(a, b)

    def test_rotate_semantics(self, ctx, keys):
        small = HEContext(HEParams(slot_count=8, noise_stddev=0.0))
        ct = small.encrypt_slots([0, 1, 2, 3, 4, 5, 6, 7], keys.public)
        out = small.he_rotate(ct, 3)
        assert list(out.slots) == [3, 4, 5, 6, 7, 0, 1, 2]
        assert small.meter.hrot == 1

    def test_rotate_identities(self, ctx, keys):
        ct = ctx.encrypt_slots(np.arange(10.0), keys.public)
        assert np.array_equal(ctx.he_rotate(ct, 0).slots, ct.slots)
        assert np.array_equal(ctx.he_rotate(ct, 2048).slots, ct.slots)
        composed = ctx.he_rotate(ctx.he_rotate(ct, 5), 7)
        assert np.array_equal(composed.slots, ctx.he_rotate(ct, 12).slots)

    def test_scripted_sequence_meters_exactly(self, ctx, keys):
        ct = ctx.encrypt_slots([1.0], keys.public)
        for _ in range(5):
            ct = ctx.he_mult(ct, 2.0)
        for _ in range(3):
            ct = ctx.he_rotate(ct, 1)
        assert ctx.meter.hmult_c2p == 5
        assert ctx.meter.hrot == 3
        assert ctx.meter.enc == 1

    def test_cost_is_per_ciphertext_not_per_live_slot(self, keys):
        # same metered cost whether 1 or 2000 slots carry data
        sparse = HEContext(HEParams())
        dense = HEContext(HEParams())
        a = sparse.encrypt_slots([1.0], keys.public)
        b = dense.encrypt_slots(np.ones(2000), keys.public)
        sparse.he_mult(a, 2.0)
        dense.he_mult(b, 2.0)
        assert sparse.meter.hmult_c2p == dense.meter.hmult_c2p == 1


def depth4_chain(ctx, keys, u, v, w, z):
    """mult, add-plain, mult-plain, rotate; returns the ciphertext and its exact value."""
    a = ctx.encrypt_slots([u], keys.public)
    b = ctx.encrypt_slots([v], keys.public)
    c = ctx.he_mult(a, b)
    c = ctx.he_add(c, w)
    c = ctx.he_mult(c, z)
    c = ctx.he_rotate(c, 0)
    return c, (u * v + w) * z


class TestNoise:
    def test_noise_envelope_depth4(self, keys):
        sigma = 1e-3
        ctx = HEContext(HEParams(noise_stddev=sigma, seed=42))
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            c, expect = depth4_chain(ctx, keys, *rng.uniform(0.2, 1.0, size=4))
            got = ctx.decrypt_stack(c, (1, 1), (1, 1), keys.private)[0, 0]
            worst = max(worst, abs(float(got) - expect))
        assert worst <= 6 * sigma

    def test_noise_is_present(self, keys):
        # the slots stay exact; the noise appears at decryption, seeded
        sigma = 1e-3
        errors = {}
        for seed in (1, 2):
            ctx = HEContext(HEParams(noise_stddev=sigma, seed=seed))
            c, expect = depth4_chain(ctx, keys, 0.9, 0.7, 0.5, 0.8)
            assert c.slots[0] == expect
            errors[seed] = float(ctx.decrypt_stack(c, (1, 1), (1, 1), keys.private)[0, 0]) - expect
        assert all(0 < abs(e) <= 6 * sigma for e in errors.values())
        assert errors[1] != errors[2]

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_one_draw_equals_consecutive_draws(self, seed):
        # a stacked decryption draws a whole block at once: the stream must
        # give the same values as the per-ciphertext draws it replaces
        counts = [2025, 1089, 289, 17, 2025, 1089, 289, 9]
        one = HEContext(HEParams(noise_stddev=1e-6, seed=seed)).draw_noise(sum(counts))
        ctx = HEContext(HEParams(noise_stddev=1e-6, seed=seed))
        assert np.array_equal(one, np.concatenate([ctx.draw_noise(n) for n in counts]))
        assert np.abs(one).max() <= 0.5

    def test_noiseless_context_draws_nothing(self):
        assert HEContext(HEParams(noise_stddev=0.0)).draw_noise(10) is None

    def test_zero_noise_is_exact_through_mult(self, ctx, keys):
        rng = np.random.default_rng(5)
        u = rng.normal(size=16)
        v = rng.normal(size=16)
        a = ctx.encrypt_slots(u, keys.public)
        b = ctx.encrypt_slots(v, keys.public)
        out = ctx.he_mult(a, b)
        assert np.array_equal(out.slots[:16], u * v)

    def test_noise_is_seeded(self, keys):
        outs = []
        for _ in range(2):
            ctx = HEContext(HEParams(noise_stddev=1e-6, seed=7))
            ct = ctx.encrypt_slots([1.0], keys.public)
            outs.append(float(ctx.decrypt_stack(ctx.he_mult(ct, ct), (1, 1), (1, 1),
                                                keys.private)[0, 0]))
        assert outs[0] == outs[1]


class TestTrackedVariance:
    SIGMA = 0.01
    S2 = SIGMA ** 2

    @pytest.fixture
    def noisy(self):
        return HEContext(HEParams(slot_count=8, noise_stddev=self.SIGMA, seed=3))

    def test_encryption_and_add(self, noisy, keys):
        a = noisy.encrypt_slots([1.0, 2.0], keys.public)
        b = noisy.encrypt_slots([3.0], keys.public)
        assert a.var == self.S2
        assert noisy.he_add(a, b).var == pytest.approx(3 * self.S2)
        assert noisy.he_add(a, 5.0).var == pytest.approx(2 * self.S2)

    def test_product_with_plaintext(self, noisy, keys):
        a = noisy.he_add(noisy.encrypt_slots([1.0, 2.0], keys.public), 1.0)  # var 2 s2
        b = np.array([0.5, -3.0, 2.0, 0, 0, 0, 0, 1.0])
        out = noisy.he_mult(a, b)
        assert np.allclose(out.var, 2 * self.S2 * b ** 2 + self.S2)
        assert noisy.he_mult(a, 4.0).var == pytest.approx(2 * self.S2 * 16 + self.S2)

    def test_product_of_ciphertexts(self, noisy, keys):
        u = np.array([1.0, -2.0, 0.5, 0, 0, 0, 0, 3.0])
        v = np.array([0.25, 4.0, -1.0, 2.0, 0, 0, 0, 0])
        a = noisy.encrypt_slots(u, keys.public)  # var s2
        b = noisy.he_add(noisy.encrypt_slots(v, keys.public), 0.0)  # var 2 s2
        out = noisy.he_mult(a, b)
        assert np.allclose(out.var, self.S2 * v ** 2 + 2 * self.S2 * u ** 2 + self.S2)

    def test_rotation_moves_variance_with_slots(self, noisy, keys):
        a = noisy.encrypt_slots(np.arange(8.0), keys.public)
        b = noisy.he_mult(a, np.arange(8.0))  # var s2 * i^2 + s2 in slot i
        out = noisy.he_rotate(b, 3)
        assert out.slots.tolist() == np.roll(b.slots, -3).tolist()
        assert np.allclose(out.var, np.roll(b.var, -3) + self.S2)
        assert noisy.he_rotate(a, 3).var == pytest.approx(2 * self.S2)

    def test_no_noise_tracks_nothing(self, ctx, keys):
        a = ctx.encrypt_slots([1.0, 2.0], keys.public)
        outs = [a, ctx.he_add(a, a), ctx.he_add(a, 1.0), ctx.he_mult(a, a),
                ctx.he_mult(a, 2.0), ctx.he_rotate(a, 1)]
        assert all(ct.var is None for ct in outs)

    def test_integer_slots_track_nothing(self, noisy, keys):
        a = noisy.encrypt_int_slots([P - 1, 3], keys.public)
        f = noisy.fold_int_slots([5, 6], keys.public, terms=2, copies=1)
        outs = [a, f, noisy.he_add(a, f), noisy.he_mult(a, [2, 3]), noisy.he_rotate(a, 1)]
        assert all(ct.var is None for ct in outs)
        assert decrypt_ints(noisy, outs[3], 2, keys.private).tolist() == [P - 2, 9]


class TestMeter:
    def test_snapshot_and_delta(self):
        a = CostMeter(hmult_c2c=2, hrot=1)
        a.record_bytes("p", "a", 100)
        snap = a.snapshot()
        a.hrot += 4
        assert a.delta(snap).hrot == 4

    def test_weighted_cost(self):
        m = CostMeter(hmult_c2c=1, hmult_c2p=2, hrot=3)
        w = CostWeights()
        assert w.weighted(m) == 4.0 * 1 + 1.0 * 2 + 2.0 * 3
        assert w.c2c >= 3 * w.c2p
        assert w.rot >= w.c2p

    def test_ciphertext_bytes(self):
        assert ciphertext_bytes(HEParams(slot_count=2048)) == 2 * 2048 * 8


def mult_add_chain(ctx, a, b, terms=None):
    """The he_mult / he_add chain that he_dot stands for, term by term along axis 0."""
    picks = range(a.slots.shape[0]) if terms is None else terms
    acc = None
    for t, p in enumerate(picks):
        prod = ctx.he_mult(a[p], b[t])
        acc = prod if acc is None else ctx.he_add(acc, prod)
    return acc


def rotate_add_chain(ctx, h, shift, copies):
    """The he_rotate / he_add chain that he_fold stands for."""
    acc, terms = h, 1
    while terms * 2 <= copies:
        acc = ctx.he_add(acc, ctx.he_rotate(acc, shift * terms))
        terms *= 2
    while terms < copies:
        acc = ctx.he_add(acc, ctx.he_rotate(h, shift * terms))
        terms += 1
    return acc


def same_ct(x, y):
    """Bit-identical slots and tracked variance."""
    if not np.array_equal(x.slots, y.slots):
        return False
    if x.var is None or y.var is None:
        return x.var is None and y.var is None
    return np.array_equal(np.broadcast_to(x.var, x.slots.shape),
                          np.broadcast_to(y.var, y.slots.shape))


class TestStacks:
    N = 8

    def ctx(self, sigma=0.01):
        return HEContext(HEParams(slot_count=self.N, noise_stddev=sigma, seed=4))

    def noisy_stack(self, ctx, keys, rng, shape, var_shape=None):
        # a product with a plaintext makes the variance per slot, of the
        # plaintext's shape: (N,) by default
        ct = ctx.encrypt_slots(rng.normal(size=shape + (self.N,)), keys.public)
        return ctx.he_mult(ct, rng.normal(size=var_shape or (self.N,)))

    def check_dot_equals_chain(self, ctx, a, b, terms=None):
        before = ctx.meter.snapshot()
        chain = mult_add_chain(ctx, a, b, terms)
        mid = ctx.meter.snapshot()
        dot = ctx.he_dot(a, b, terms=terms)
        assert same_ct(dot, chain)
        assert ctx.meter.delta(mid).as_dict() == mid.delta(before).as_dict()
        return dot

    def test_dot_c2c_float(self, keys):
        ctx = self.ctx()
        rng = np.random.default_rng(0)
        # every term its own per-slot variance on both sides
        a = self.noisy_stack(ctx, keys, rng, (4, 2, 3), var_shape=(4, 1, 1, self.N))
        b = self.noisy_stack(ctx, keys, rng, (4, 3), var_shape=(4, 1, self.N))
        dot = self.check_dot_equals_chain(ctx, a, b)
        assert dot.slots.shape == (2, 3, self.N) and dot.count == 6
        before = ctx.meter.snapshot()
        ctx.he_dot(a, b)
        assert ctx.meter.delta(before).hmult_c2c == 6 * 4
        assert ctx.meter.delta(before).hadd == 6 * 3

    def test_dot_per_slot_variance_on_b_side_only(self, keys):
        ctx = self.ctx()
        rng = np.random.default_rng(6)
        a = ctx.encrypt_slots(rng.normal(size=(3, 2, self.N)), keys.public)
        b = self.noisy_stack(ctx, keys, rng, (3, 2), var_shape=(3, 2, self.N))
        dot = self.check_dot_equals_chain(ctx, a, b)
        assert np.shape(dot.var) == (2, self.N)

    @pytest.mark.parametrize("vector", [False, True])
    def test_dot_c2p_float(self, keys, vector):
        ctx = self.ctx()
        rng = np.random.default_rng(1)
        a = self.noisy_stack(ctx, keys, rng, (5, 3))
        b = (rng.normal(size=(5, 3, self.N)) if vector
             else [float(w) for w in rng.normal(size=5)])
        self.check_dot_equals_chain(ctx, a, b)

    def test_dot_weight_vector(self, keys):
        # a T-vector of scalar weights, on per-slot and on scalar variances
        ctx = self.ctx()
        rng = np.random.default_rng(11)
        a = self.noisy_stack(ctx, keys, rng, (5, 3), var_shape=(5, 1, self.N))
        self.check_dot_equals_chain(ctx, a, rng.normal(size=5))
        fresh = ctx.encrypt_slots(rng.normal(size=(5, 3, self.N)), keys.public)
        dot = self.check_dot_equals_chain(ctx, fresh, rng.normal(size=5))
        assert np.ndim(dot.var) == 0

    def test_dot_scalar_variance_stays_scalar(self, keys):
        # fresh ciphertexts times scalar weights: the aggregation case
        ctx = self.ctx()
        a = ctx.encrypt_slots(np.arange(4.0)[:, None, None] * np.ones((4, 2, 3)), keys.public)
        dot = self.check_dot_equals_chain(ctx, a, [0.5, -1.25, 3.0, 0.125])
        assert np.ndim(dot.var) == 0

    def test_dot_picks_terms_in_place(self, keys):
        # the aggregation of a subset: some entries of the term axis, in order
        ctx = self.ctx()
        rng = np.random.default_rng(7)
        a = self.noisy_stack(ctx, keys, rng, (5, 2), var_shape=(5, 2, self.N))
        picks = [3, 0, 4]
        self.check_dot_equals_chain(ctx, a, rng.normal(size=3), terms=picks)
        self.check_dot_equals_chain(ctx, a, self.noisy_stack(ctx, keys, rng, (3, 2)), terms=picks)

    @pytest.mark.parametrize("sigma", [0.01, 0.0])
    def test_dot_squaring_broadcast_shapes(self, keys, sigma):
        # the squaring kernel's products: model (T, 1, j, k, w) x batches (T, B, 1, k, w)
        ctx = self.ctx(sigma=sigma)
        rng = np.random.default_rng(8)
        model = ctx.encrypt_slots(rng.normal(size=(4, 1, 3, 2, self.N)), keys.public)
        batch = ctx.encrypt_slots(rng.normal(size=(4, 5, 1, 2, self.N)), keys.public)
        dot = self.check_dot_equals_chain(ctx, model, batch)
        assert dot.slots.shape == (5, 3, 2, self.N) and dot.count == 30

    def test_dot_without_noise_tracks_nothing(self, keys):
        ctx = self.ctx(sigma=0.0)
        rng = np.random.default_rng(2)
        a = ctx.encrypt_slots(rng.normal(size=(3, 2, self.N)), keys.public)
        for b in (ctx.encrypt_slots(rng.normal(size=(3, self.N)), keys.public),
                  [2.5, -1.0, 0.75], rng.normal(size=(3, self.N))):
            dot = self.check_dot_equals_chain(ctx, a, b)
            assert dot.var is None

    def test_dot_integer_slots(self, keys):
        ctx = self.ctx()
        rng = np.random.default_rng(3)
        a = ctx.encrypt_int_slots(rng.integers(0, P, size=(6, self.N), dtype=np.uint64),
                                  keys.public)
        b = rng.integers(0, P, size=(6, self.N), dtype=np.uint64)
        b[0] = P - 1
        dot = self.check_dot_equals_chain(ctx, a, b)
        want = sum(a.slots[t].astype(object) * b[t].astype(object) for t in range(6))
        assert dot.slots.tolist() == (want % P).tolist()
        assert dot.var is None

    def test_dot_integer_weights(self, keys):
        ctx = self.ctx()
        rng = np.random.default_rng(9)
        a = ctx.encrypt_int_slots(rng.integers(0, P, size=(3, 2, self.N), dtype=np.uint64),
                                  keys.public)
        weights = [P - 1, 2, 0]
        dot = self.check_dot_equals_chain(ctx, a, weights)
        want = sum(a.slots[t].astype(object) * w for t, w in enumerate(weights))
        assert dot.slots.tolist() == (want % P).tolist()

    def test_dot_rejects_uneven_terms(self, keys):
        ctx = self.ctx()
        a = ctx.encrypt_slots(np.ones((2, 1)), keys.public)
        with pytest.raises(BackendError, match="got 2 and 1"):
            ctx.he_dot(a, [1.0])
        with pytest.raises(BackendError, match="got 2 and 3"):
            ctx.he_dot(a, ctx.encrypt_slots(np.ones((3, 1)), keys.public))
        with pytest.raises(BackendError, match="got 1 and 2"):
            ctx.he_dot(a, [1.0, 2.0], terms=[1])

    def test_dot_rejects_empty_terms(self, keys):
        ctx = self.ctx()
        a = ctx.encrypt_slots(np.ones((2, 1)), keys.public)
        with pytest.raises(BackendError, match="got 0 and 0"):
            ctx.he_dot(a[:0], np.zeros((0, self.N)))
        with pytest.raises(BackendError, match="got 0 and 0"):
            ctx.he_dot(a, [], terms=[])

    def test_dot_holds_no_stack_of_terms(self, keys):
        # T = 16 noisy c2c products: the buffers are a few outputs' worth,
        # where stacking every product at once would take 16
        ctx = self.ctx()
        rng = np.random.default_rng(10)
        a = ctx.encrypt_slots(rng.normal(size=(16, 512, self.N)), keys.public)
        b = ctx.encrypt_slots(rng.normal(size=(16, 512, self.N)), keys.public)
        out_bytes = 512 * self.N * 8
        tracemalloc.start()
        try:
            dot = ctx.he_dot(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dot.slots.nbytes == out_bytes and np.shape(dot.var) == (512, self.N)
        assert peak < 6 * out_bytes

    @pytest.mark.parametrize("copies", [1, 2, 3, 4, 5, 7, 8, 15, 16, 22])
    @pytest.mark.parametrize("kind", ["exact", "scalar_var", "slot_var", "stack_var", "integer"])
    def test_fold_equals_rotate_add_chain(self, keys, kind, copies):
        # the fold returns the chain's top copy: its first shift slots and
        # their variance, bit for bit, at the chain's meter cost
        shift, width = 3, 128
        ctx = HEContext(HEParams(slot_count=width, noise_stddev=0.0 if kind == "exact" else 0.01,
                                 seed=4))
        rng = np.random.default_rng(copies)
        shape = (2, 3, width)
        if kind == "integer":
            h = ctx.encrypt_int_slots(rng.integers(0, P, size=shape, dtype=np.uint64),
                                      keys.public)
        else:
            h = ctx.encrypt_slots(rng.normal(size=shape), keys.public)
        if kind == "slot_var":  # a per-slot variance broadcast over the stack
            h = ctx.he_mult(h, rng.normal(size=width))
        elif kind == "stack_var":  # a variance per slot of every ciphertext
            h = ctx.he_mult(h, ctx.encrypt_slots(rng.normal(size=shape), keys.public))
        kept = (h.slots.copy(), np.copy(h.var))
        before = ctx.meter.snapshot()
        chain = rotate_add_chain(ctx, h, shift, copies)
        mid = ctx.meter.snapshot()
        fold = ctx.he_fold(h, shift, copies)
        assert fold.width == shift and fold.slots.shape == shape[:-1] + (shift,)
        top = CipherVector(chain.slots[..., :shift], chain.key_id,
                           chain.var[..., :shift] if np.ndim(chain.var) else chain.var)
        assert same_ct(fold, top)
        assert fold.slots.dtype == chain.slots.dtype
        assert np.ndim(fold.var) == np.ndim(chain.var)
        assert ctx.meter.delta(mid).as_dict() == mid.delta(before).as_dict()
        assert np.array_equal(h.slots, kept[0]) and np.array_equal(np.copy(h.var), kept[1])
        if kind == "exact" or kind == "integer":
            assert fold.var is None

    @pytest.mark.parametrize("shift,copies", [(3, 0), (3, -1), (0, 2), (3, 3), (5, 2), (1, 9)])
    def test_fold_rejects_copies_that_would_wrap(self, keys, shift, copies):
        ctx = self.ctx()
        h = ctx.encrypt_slots(np.ones((2, self.N)), keys.public)
        before = ctx.meter.as_dict()
        with pytest.raises(BackendError) as err:
            ctx.he_fold(h, shift, copies)
        message = str(err.value)
        assert f"copies={copies}" in message and f"shift={shift}" in message
        assert f"width {self.N}" in message
        assert ctx.meter.as_dict() == before
        ctx.he_fold(h, 4, 2)  # exactly the width: accepted

    def test_stacked_rotation_equals_per_ciphertext(self, keys):
        ctx = self.ctx()
        stack = self.noisy_stack(ctx, keys, np.random.default_rng(4), (2, 3))
        before = ctx.meter.snapshot()
        out = ctx.he_rotate(stack, 3)
        assert ctx.meter.delta(before).hrot == 6
        for j in range(2):
            for k in range(3):
                assert same_ct(out[j, k], ctx.he_rotate(stack[j, k], 3))

    def test_indexing_meters_nothing_and_keeps_variance(self, keys):
        ctx = self.ctx()
        stack = self.noisy_stack(ctx, keys, np.random.default_rng(5), (2, 3))
        before = ctx.meter.as_dict()
        view = stack[..., None, 1, :]
        assert view.slots.shape == (2, 1, self.N) and view.count == 2
        full_var = np.broadcast_to(stack.var, stack.slots.shape)
        assert np.array_equal(view.var, full_var[..., None, 1, :])
        assert stack[1, 2].width == self.N
        assert ctx.meter.as_dict() == before
        with pytest.raises(BackendError):
            stack[..., 0]  # drops the slot axis

    def test_stack_encryption_meters_per_ciphertext(self, keys):
        ctx = self.ctx()
        stack = ctx.encrypt_slots(np.ones((4, 3)), keys.public)
        assert stack.slots.shape == (4, self.N) and ctx.meter.enc == 4
        ctx.fold_int_slots(np.ones((2, 3), dtype=np.uint64), keys.public, terms=3, copies=2)
        assert (ctx.meter.hmult_c2p, ctx.meter.hadd) == (12, 8)
