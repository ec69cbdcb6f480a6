import numpy as np
import pytest

from secshap.hebackend import (
    BackendError,
    CostMeter,
    CostWeights,
    HEContext,
    HEParams,
    KeyMismatchError,
    ciphertext_bytes,
    generate_keypair,
)
from secshap.matrix import Matrix
from secshap.sharing import FieldParams


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


P = (1 << 61) - 1  # the default FieldParams prime: the plaintext modulus


class TestEncryptDecrypt:
    def test_small_matrix_fits_one_ciphertext(self, ctx, keys):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        ct = ctx.encrypt_slots(m.row_major(), keys.public)
        assert np.array_equal(ct.slots[:6], [1, 2, 3, 4, 5, 6])
        assert np.all(ct.slots[6:] == 0)
        assert ctx.meter.enc == 1

    def test_round_trip_exact_without_noise(self, ctx, keys):
        m = Matrix(np.random.default_rng(3).normal(size=(5, 7)))
        back = ctx.decrypt_matrix(ctx.encrypt_slots(m.row_major(), keys.public), (5, 7),
                                  keys.private)
        assert back.allclose(m)
        assert ctx.meter.dec == 1

    def test_key_mismatch_raises(self, ctx, keys):
        other = generate_keypair("other")
        ct = ctx.encrypt_slots([1], keys.public)
        with pytest.raises(KeyMismatchError):
            ctx.decrypt_matrix(ct, (1, 1), other.private)

    def test_decrypt_log_records_actor(self, ctx, keys):
        ct = ctx.encrypt_slots([1], keys.public)
        ctx.decrypt_matrix(ct, (1, 1), keys.private, actor="client2")
        assert ctx.decrypt_log == ["client2"]

    def test_integer_slots_are_exact(self, ctx, keys):
        # slots hold field elements mod the plaintext modulus p, exactly
        elems = [P - 1, P - 2, 1, 0, (1 << 60) + 12345]
        ct = ctx.encrypt_int_slots(elems, keys.public)
        back = ctx.decrypt_int_slots(ct, 5, keys.private)
        assert back.tolist() == elems
        prod = ctx.he_mult(ct, np.array(elems[::-1], dtype=np.uint64))
        total = ctx.he_add(prod, ct)
        got = ctx.decrypt_int_slots(total, 5, keys.private)
        assert got.tolist() == [(a * b + a) % P for a, b in zip(elems, elems[::-1])]

    def test_other_primes_keep_python_int_slots(self, keys):
        wide = FieldParams(prime=(1 << 89) - 1)
        ctx = HEContext(HEParams(slot_count=8), field=wide)
        elems = [wide.prime - 1, 1 << 70, 3]
        ct = ctx.he_mult(ctx.encrypt_int_slots(elems, keys.public), elems)
        assert ct.slots.dtype == object
        got = ctx.decrypt_int_slots(ct, 3, keys.private)
        assert got.tolist() == [a * a % wide.prime for a in elems]

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
        assert ctx.decrypt_int_slots(ct, 2, keys.private).tolist() == folded
        assert ct.key_id == keys.public.key_id and ct.width == 2048
        assert (ctx.meter.hmult_c2p, ctx.meter.hadd, ctx.meter.enc) == (6, 4, 0)

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


class TestNoise:
    def test_noise_envelope_depth4(self, keys):
        sigma = 1e-3
        ctx = HEContext(HEParams(noise_stddev=sigma, seed=42))
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            u, v, w, z = rng.uniform(0.2, 1.0, size=4)
            a = ctx.encrypt_slots([u], keys.public)
            b = ctx.encrypt_slots([v], keys.public)
            # depth-4 chain: mult, add-plain, mult-plain, rotate
            c = ctx.he_mult(a, b)
            c = ctx.he_add(c, w)
            c = ctx.he_mult(c, z)
            c = ctx.he_rotate(c, 0)
            expect = (u * v + w) * z
            worst = max(worst, abs(float(c.slots[0]) - expect))
        assert worst <= 6 * sigma

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
            outs.append(float(ctx.he_mult(ct, ct).slots[0]))
        assert outs[0] == outs[1]


class TestMeter:
    def test_merge_and_delta(self):
        a = CostMeter(hmult_c2c=2, hrot=1)
        a.record_bytes("p", "a", 100)
        b = CostMeter(hmult_c2p=3)
        b.record_bytes("p", "a", 50)
        a.merge(b)
        assert a.hmult_c2p == 3 and a.bytes_sent[("p", "a")] == 150
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
