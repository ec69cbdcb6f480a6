import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secshap.hebackend import HEContext, HEParams, generate_keypair
from secshap.kernels import (
    MatMulPlan,
    PlanError,
    delta_reference,
    plan_reducing,
    plan_squaring,
    reducing_field_slots,
    reducing_matmul,
    reducing_max_batch,
    reducing_prepare_batch,
    reducing_prepare_model,
    squaring_decrypt_stack,
    squaring_matmul,
    squaring_max_batch,
    squaring_prepare_batch,
    squaring_prepare_model,
)
from secshap.matrix import matmul_oracle, submatrix, transform
from secshap.sharing import M61

TABLE_SHAPES = [(4, 300), (2, 48), (64, 256), (10, 64), (32, 64), (32, 32), (2, 32)]
N = 2048

KEYS = generate_keypair("kern")


def int_matrix(rng, rows, cols, lo=-8, hi=8):
    return rng.integers(lo, hi + 1, size=(rows, cols)).astype(float)


def rotate_add_chain(ctx, h, shift, copies):
    """The full-width he_rotate / he_add chain that he_fold keeps the top copy of."""
    acc, terms = h, 1
    while terms * 2 <= copies:
        acc = ctx.he_add(acc, ctx.he_rotate(acc, shift * terms))
        terms *= 2
    while terms < copies:
        acc = ctx.he_add(acc, ctx.he_rotate(h, shift * terms))
        terms += 1
    return acc


def run_squaring(a, b, ctx, encrypt_b=True, plan=None):
    plan = plan or plan_squaring(a.shape[0], a.shape[1], b.shape[1], ctx.params.slot_count)
    model = squaring_prepare_model(a, plan, ctx, KEYS.public)
    batch = squaring_prepare_batch(b, plan, ctx, KEYS.public, encrypt=encrypt_b)
    bands = squaring_matmul(model, batch, plan, ctx)
    return squaring_decrypt_stack(bands, plan, ctx, KEYS.private), plan


def run_reducing(a, b, ctx, encrypt_b=False, plan=None):
    plan = plan or plan_reducing(a.shape[0], a.shape[1], b.shape[1], ctx.params.slot_count)
    model = reducing_prepare_model(a, plan, ctx, KEYS.public)
    batch = reducing_prepare_batch(b, plan, ctx, KEYS.public, encrypt=encrypt_b)
    ct = reducing_matmul(model, batch, plan, ctx)
    shape = (plan.d_out, plan.m)
    return ctx.decrypt_stack(ct, shape, shape, KEYS.private), plan


class TestPlans:
    @pytest.mark.parametrize(
        "shape,k,j,d_out_block,hmult,hrot",
        [
            ((4, 300), 7, 1, 5, 35, 28),
            ((2, 48), 2, 1, 3, 6, 20),
            ((64, 256), 6, 2, 45, 540, 0),
            ((10, 64), 2, 1, 15, 30, 4),
            ((32, 64), 2, 1, 45, 90, 0),
            ((32, 32), 1, 1, 32, 32, 0),
            ((2, 32), 1, 1, 2, 2, 4),
        ],
    )
    def test_squaring_plan_blocking(self, shape, k, j, d_out_block, hmult, hrot):
        d_out, d_in = shape
        plan = plan_squaring(d_out, d_in, squaring_max_batch(d_in, N), N)
        assert (plan.k_blocks, plan.j_blocks, plan.d_out_block) == (k, j, d_out_block)
        assert plan.expected_hmult() == hmult
        assert plan.expected_hrot() == hrot

    def test_reducing_plan(self):
        plan = plan_reducing(2, 48, 1024, N)
        assert plan.expected_hmult() == 48
        assert plan.expected_hrot() == 0

    def test_batch_limits(self):
        with pytest.raises(PlanError):
            plan_squaring(4, 300, 46, N)  # above floor(sqrt(N)) = 45
        with pytest.raises(PlanError):
            plan_squaring(2, 8, 9, N)  # above d_in
        with pytest.raises(PlanError):
            plan_reducing(64, 256, reducing_max_batch(64, N) + 1, N)

    def test_rows_exceeding_inner_dim_are_padded(self):
        plan = plan_squaring(30, 21, 21, N)
        assert plan.s == 30 and plan.d_out_block == 30
        assert plan.expected_hrot() == 0


class TestDeltaReference:
    def test_equals_product(self):
        rng = np.random.default_rng(0)
        a = int_matrix(rng, 3, 5)
        b = int_matrix(rng, 5, 4)
        assert np.array_equal(delta_reference(a, b), matmul_oracle(a, b))

    def test_identity(self):
        eye = np.eye(2)
        assert np.array_equal(delta_reference(eye, eye), eye)

    def test_horizontal_composition(self):
        # delta((A || A), (B1 || B2)) == (delta(A, B1) || delta(A, B2))
        rng = np.random.default_rng(1)
        a = int_matrix(rng, 3, 4)
        b1 = int_matrix(rng, 4, 4)
        b2 = int_matrix(rng, 4, 2)
        lhs = delta_reference(np.hstack([a, a]), np.hstack([b1, b2]))
        rhs = np.hstack([delta_reference(a, b1), delta_reference(a, b2)])
        assert np.array_equal(lhs, rhs)

    def test_shape_validation(self):
        with pytest.raises(PlanError):
            delta_reference(np.zeros((2, 5)), np.zeros((4, 2)))


class TestSquaringKernel:
    def test_small_instance_n16(self):
        # 2x4 times 4x3 fits the N=16 backend: one fold rotation
        ctx = HEContext(HEParams(slot_count=16))
        rng = np.random.default_rng(2)
        a = int_matrix(rng, 2, 4)
        b = int_matrix(rng, 4, 3)
        got, plan = run_squaring(a, b, ctx)
        assert np.array_equal(got, matmul_oracle(a, b))
        assert plan.d_out_block == 2 and plan.expected_hrot() == 1
        assert ctx.meter.hrot == 1

    def test_fold_identity_on_h(self):
        # the folded square H satisfies: top band + bottom band == A @ B
        rng = np.random.default_rng(3)
        a = int_matrix(rng, 2, 4)
        b = int_matrix(rng, 4, 3)
        a_bar = np.vstack([a, a])
        b_bar = np.hstack([b, np.zeros((4, 1))])
        h = np.zeros((4, 4))
        for o in range(2):
            h += (
                transform(transform(a_bar, "sigma"), "xi", o)
                * transform(transform(b_bar, "tau"), "psi", o)
            )
        total = submatrix(h, 0, 2, 0, 3) + submatrix(h, 2, 4, 0, 3)
        assert np.array_equal(total, matmul_oracle(a, b))

    def test_identity_model_returns_batch_rows(self):
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(4)
        b = int_matrix(rng, 8, 5)
        eye = np.eye(3, 8)
        got, _ = run_squaring(eye, b, ctx)
        assert np.array_equal(got, b[:3])

    @pytest.mark.parametrize("shape", TABLE_SHAPES)
    def test_table_shapes_match_oracle(self, shape):
        d_out, d_in = shape
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(d_out * 1000 + d_in)
        m = squaring_max_batch(d_in, N)
        a = int_matrix(rng, d_out, d_in)
        b = int_matrix(rng, d_in, m)
        got, plan = run_squaring(a, b, ctx)
        assert np.array_equal(got, matmul_oracle(a, b))
        assert ctx.meter.hmult_c2c == plan.expected_hmult()
        assert ctx.meter.hrot == plan.expected_hrot()

    def test_plain_batch_side_uses_c2p(self):
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(5)
        a = int_matrix(rng, 2, 32)
        b = int_matrix(rng, 32, 16)
        got, plan = run_squaring(a, b, ctx, encrypt_b=False)
        assert np.array_equal(got, matmul_oracle(a, b))
        assert ctx.meter.hmult_c2c == 0
        assert ctx.meter.hmult_c2p == plan.expected_hmult()


    @pytest.mark.parametrize("shape", [(4, 300), (10, 64), (64, 100)])
    def test_leading_batch_axis_equals_per_batch_calls(self, shape):
        # one evaluation over a stack of batches of different widths equals
        # one call per batch: same slots, same variance, summed meters.  The
        # plan's m fixes the slot layout, so every batch takes plans[0]
        d_out, d_in = shape
        ctx = HEContext(HEParams(noise_stddev=1e-6, seed=2))
        rng = np.random.default_rng(d_out + d_in)
        m_cap = squaring_max_batch(d_in, N)
        a = rng.uniform(-1, 1, size=(d_out, d_in))
        batches = [rng.uniform(-1, 1, size=(d_in, m)) for m in (m_cap, 3, m_cap - 1)]
        plans = [plan_squaring(d_out, d_in, b.shape[1], N) for b in batches]
        model = squaring_prepare_model(a, plans[0], ctx, KEYS.public)
        sides = [squaring_prepare_batch(b, plans[0], ctx, KEYS.public) for b in batches]
        stacked = ctx.encrypt_slots(np.stack([side.slots for side in sides], axis=1),
                                    KEYS.public, width=plans[0].live_width())

        before = ctx.meter.snapshot()
        singles = [squaring_matmul(model, side, plans[0], ctx) for side in sides]
        mid = ctx.meter.snapshot()
        bands = squaring_matmul(model, stacked, plans[0], ctx)
        assert ctx.meter.delta(mid).as_dict() == mid.delta(before).as_dict()
        # a band stores only the L x m slots its decryptor reads
        width = plans[0].live_rows() * m_cap
        assert bands.slots.shape == (3, plans[0].j_blocks, width)
        for b, single in enumerate(singles):
            assert np.array_equal(bands[b].slots, single.slots)
            assert np.array_equal(bands[b].var, single.var)
        got = squaring_decrypt_stack(bands[1], plans[0], ctx, KEYS.private)[:, :3]
        want = matmul_oracle(a, batches[1])
        assert np.allclose(got, want, atol=1e-4)

    @pytest.mark.parametrize("shape", [(10, 64), (64, 100)])
    def test_model_stack_equals_per_model_calls(self, shape):
        # hesv uploads every client's layer as one [owner, o, j, k] stack
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(shape[0])
        plan = plan_squaring(*shape, 5, N)
        models = rng.uniform(-1, 1, size=(3,) + shape)
        before = ctx.meter.snapshot()
        stack = squaring_prepare_model(models, plan, ctx, KEYS.public)
        mid = ctx.meter.snapshot()
        singles = [squaring_prepare_model(a, plan, ctx, KEYS.public) for a in models]
        assert ctx.meter.delta(mid).as_dict() == mid.delta(before).as_dict()
        assert stack.slots.shape == (3,) + singles[0].slots.shape
        for p, single in enumerate(singles):
            assert np.array_equal(stack.slots[p], single.slots)

    @pytest.mark.parametrize(
        "shape,m,blocks,width",
        [((2, 48), 7, (15, 1, 2), 210), ((10, 64), 5, (3, 1, 2), 150),
         ((64, 100), 20, (1, 2, 3), 900)],
    )
    def test_live_layout_width_and_product(self, shape, m, blocks, width):
        # operands store C x L x m slots and bands L x m; blocks are (C, J, K), m < s
        d_out, d_in = shape
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(d_out * 7 + d_in + m)
        a = int_matrix(rng, d_out, d_in)
        b = int_matrix(rng, d_in, m)
        plan = plan_squaring(d_out, d_in, m, N)
        assert (plan.copies(), plan.j_blocks, plan.k_blocks) == blocks and m < plan.s
        assert plan.live_width() == plan.copies() * plan.live_rows() * m == width
        model = squaring_prepare_model(a, plan, ctx, KEYS.public)
        batch = squaring_prepare_batch(b, plan, ctx, KEYS.public)
        assert model.slots.shape == (plan.d_out_block, plan.j_blocks, plan.k_blocks, width)
        assert batch.slots.shape == (plan.d_out_block, plan.k_blocks, width)
        bands = squaring_matmul(model, batch, plan, ctx)
        assert bands.slots.shape == (plan.j_blocks, plan.live_rows() * m)  # L x m per band
        got = squaring_decrypt_stack(bands, plan, ctx, KEYS.private)
        assert np.array_equal(got, matmul_oracle(a, b))
        assert ctx.meter.hmult_c2c == plan.expected_hmult()
        assert ctx.meter.hrot == plan.expected_hrot()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "shape,m,batches,blocks",
        [((2, 49), 45, 3, (15, 1, 2)),  # stock's logistic layer
         ((5, 30), 12, 2, (6, 1, 1)),
         ((64, 100), 20, 2, (1, 2, 3))],
    )
    def test_noisy_bands_equal_full_width_chain(self, shape, m, batches, blocks, seed):
        # the kernel against the evaluation it stands for: the full-width
        # rotate-and-add chain, he_add band sums, and a decryption with the
        # same draws; slots, variance, decrypted values and meters bit for bit
        d_out, d_in = shape
        ctx = HEContext(HEParams(noise_stddev=1e-3, seed=seed))
        rng = np.random.default_rng(seed * 100 + d_out)
        plan = plan_squaring(d_out, d_in, m, N)
        assert (plan.copies(), plan.j_blocks, plan.k_blocks) == blocks
        model = squaring_prepare_model(rng.uniform(-1, 1, size=shape), plan, ctx,
                                       KEYS.public)
        sides = squaring_prepare_batch(rng.uniform(-1, 1, size=(batches, d_in, m)), plan, ctx,
                                       KEYS.public)
        live, s = plan.live_rows(), plan.s
        draws = rng.standard_normal(batches * plan.j_blocks * plan.d_out_block * s)

        before = ctx.meter.snapshot()
        h = ctx.he_dot(model, sides[..., None, :, :])
        acc = rotate_add_chain(ctx, h, live * m, plan.copies())
        want = acc[..., 0, :]
        for k in range(1, plan.k_blocks):
            want = ctx.he_add(want, acc[..., k, :])
        want_out = ctx.decrypt_stack(want, (live, m), (plan.d_out_block, s), KEYS.private,
                                     draws=draws)
        mid = ctx.meter.snapshot()
        bands = squaring_matmul(model, sides, plan, ctx)
        got = squaring_decrypt_stack(bands, plan, ctx, KEYS.private, draws=draws)

        assert ctx.meter.delta(mid).as_dict() == mid.delta(before).as_dict()
        assert bands.slots.shape == (batches, plan.j_blocks, live * m)
        assert np.array_equal(bands.slots, want.slots[..., : live * m])
        full_var = np.broadcast_to(want.var, want.slots.shape)[..., : live * m]
        assert np.array_equal(np.broadcast_to(bands.var, bands.slots.shape), full_var)
        assert np.array_equal(got, want_out.reshape(batches, -1, m)[:, :d_out])
        assert not np.array_equal(got, squaring_decrypt_stack(bands, plan, ctx, KEYS.private))

    def test_prepare_batch_with_leading_axis_equals_per_batch_calls(self):
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(15)
        plan = plan_squaring(10, 64, 5, N)
        stack = rng.uniform(-1, 1, size=(2, 3, 64, 5))
        got = squaring_prepare_batch(stack, plan, ctx, KEYS.public, encrypt=False)
        assert got.shape == (plan.d_out_block, 2, 3, plan.k_blocks, plan.live_width())
        for idx in np.ndindex(2, 3):
            one = squaring_prepare_batch(stack[idx], plan, ctx, KEYS.public,
                                         encrypt=False)
            assert np.array_equal(got[(slice(None),) + idx], one)

    def test_stack_shape_checked_against_plan(self):
        ctx = HEContext(HEParams())
        a = int_matrix(np.random.default_rng(13), 4, 300)
        plan = plan_squaring(4, 300, 10, N)
        model = squaring_prepare_model(a, plan, ctx, KEYS.public)
        batch = squaring_prepare_batch(int_matrix(np.random.default_rng(14), 300, 10), plan,
                                       ctx, KEYS.public)
        with pytest.raises(PlanError):
            squaring_matmul(model, batch[:, :3], plan, ctx)  # K = 3, not 7
        with pytest.raises(PlanError):
            squaring_matmul(model, batch[:4], plan, ctx)  # 4 operands, not 5
        with pytest.raises(PlanError):
            squaring_matmul(model[:, :, :3], batch, plan, ctx)


class TestReducingKernel:
    def test_packed_copies_instance(self):
        # batch wider than d_in
        ctx = HEContext(HEParams(slot_count=16))
        rng = np.random.default_rng(6)
        a = int_matrix(rng, 2, 4)
        b = int_matrix(rng, 4, 6)
        got, plan = run_reducing(a, b, ctx)
        assert np.array_equal(got, matmul_oracle(a, b))

    def test_zero_rotations_exact_mults(self):
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(7)
        a = int_matrix(rng, 10, 64)
        b = int_matrix(rng, 64, 100)
        got, plan = run_reducing(a, b, ctx)
        assert np.array_equal(got, matmul_oracle(a, b))
        assert ctx.meter.hrot == 0
        assert ctx.meter.hmult_c2p == 64  # one per transformed pair
        assert ctx.meter.hmult_c2c == 0

    def test_single_copy_case_equals_delta(self):
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(8)
        a = int_matrix(rng, 3, 6)
        b = int_matrix(rng, 6, 6)
        got, _ = run_reducing(a, b, ctx)
        assert np.array_equal(got, delta_reference(a, b))

    @pytest.mark.parametrize("shape", TABLE_SHAPES)
    def test_table_shapes_match_oracle(self, shape):
        d_out, d_in = shape
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(d_out * 77 + d_in)
        m = reducing_max_batch(d_out, N)
        a = int_matrix(rng, d_out, d_in, -4, 4)
        b = int_matrix(rng, d_in, m, -4, 4)
        got, _ = run_reducing(a, b, ctx)
        assert np.array_equal(got, matmul_oracle(a, b))

    def test_encrypted_batch_uses_c2c(self):
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(9)
        a = int_matrix(rng, 4, 8)
        b = int_matrix(rng, 8, 8)
        got, _ = run_reducing(a, b, ctx, encrypt_b=True)
        assert np.array_equal(got, matmul_oracle(a, b))
        assert ctx.meter.hmult_c2c == 8

    def test_cached_model_at_capacity_serves_narrow_batches(self):
        ctx = HEContext(HEParams())
        rng = np.random.default_rng(10)
        a = int_matrix(rng, 4, 8)
        capacity = reducing_max_batch(4, N)
        plan = plan_reducing(4, 8, capacity, N)
        model = reducing_prepare_model(a, plan, ctx, KEYS.public, width=capacity)
        b = int_matrix(rng, 8, 20)
        batch = reducing_prepare_batch(b, plan, ctx, width=capacity)
        ct = reducing_matmul(model, batch, plan, ctx)
        got = ctx.decrypt_stack(ct, (4, capacity), (4, capacity), KEYS.private)
        assert np.array_equal(got[:, :20], matmul_oracle(a, b))

    def test_integer_payload_is_exact(self):
        # field elements held as int64 take the same exact field slots, mod p
        ctx = HEContext(HEParams(noise_stddev=1e-6))
        rng = np.random.default_rng(11)
        p = (1 << 61) - 1
        a = rng.integers(0, p, size=(2, 4), dtype=np.int64)
        b = rng.integers(0, p, size=(4, 6), dtype=np.int64)
        a[0, 0] = b[0, 0] = p - 1
        plan = plan_reducing(2, 4, 6, N)
        model = reducing_prepare_model(a, plan, ctx, KEYS.public)
        batch = reducing_prepare_batch(b, plan, ctx)
        ct = reducing_matmul(model, batch, plan, ctx)
        assert ct.slots.dtype == np.uint64
        want = (a.astype(object) @ b.astype(object)) % p
        assert ct.slots[:12].reshape(2, 6).tolist() == want.tolist()

    def test_uint64_payload_is_exact(self):
        # 61-bit field elements as uint64 shares: float slots would drop low bits
        ctx = HEContext(HEParams(noise_stddev=1e-6))
        rng = np.random.default_rng(12)
        p = (1 << 61) - 1
        a = rng.integers(0, p, size=(2, 4), dtype=np.uint64)
        b = rng.integers(0, p, size=(4, 6), dtype=np.uint64)
        a[0, 0] = b[0, 0] = p - 1
        plan = plan_reducing(2, 4, 6, N)
        model = reducing_prepare_model(a, plan, ctx, KEYS.public)
        batch = reducing_prepare_batch(b, plan, ctx)
        ct = reducing_matmul(model, batch, plan, ctx)
        assert ct.slots.dtype == np.uint64
        want = (a.astype(object) @ b.astype(object)) % p
        assert ct.slots[:12].reshape(2, 6).tolist() == want.tolist()


class TestReducingFieldSlots:
    """The slots of one field product against the views + he_dot kernel they replace."""

    @staticmethod
    def field_operand(rng, shape):
        # random elements, with about a third each forced to 0 and p - 1
        arr = M61.random(rng, shape)
        pick = rng.integers(0, 3, size=shape)
        arr[pick == 1] = 0
        arr[pick == 2] = M61.p - 1
        return arr

    @staticmethod
    def check_equals_kernel(a, b, width, slot_count):
        d_out, d_in = a.shape
        ctx = HEContext(HEParams(slot_count=slot_count))
        plan = plan_reducing(d_out, d_in, width, slot_count)
        model = reducing_prepare_model(a, plan, ctx, KEYS.public, width=width)
        batch = reducing_prepare_batch(b, plan, ctx, width=width)
        before = ctx.meter.snapshot()
        want = reducing_matmul(model, batch, plan, ctx)
        mid = ctx.meter.snapshot()
        got = reducing_field_slots(M61.matmul(a, b), plan, ctx, KEYS.public)
        assert got.slots.dtype == want.slots.dtype == np.uint64
        assert np.array_equal(got.slots, want.slots)
        assert got.key_id == want.key_id and got.var is None
        assert ctx.meter.delta(mid).as_dict() == mid.delta(before).as_dict()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        d_out=st.integers(1, 6),
        d_in=st.integers(1, 12),
        data=st.data(),
    )
    def test_equals_views_and_he_dot(self, d_out, d_in, data):
        slot_count = 64
        width = data.draw(st.integers(2, slot_count // d_out), label="width")
        m = data.draw(st.integers(1, width - 1), label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        a = self.field_operand(rng, (d_out, d_in))
        b = self.field_operand(rng, (d_in, m))
        self.check_equals_kernel(a, b, width, slot_count)

    @pytest.mark.parametrize("fill", ["top", "random"])
    def test_inner_width_beyond_one_matmul_chunk(self, fill):
        # d_in = 2^14 + 5 spans 2^7 full chunks of the uint64 matmul's inner axis and a partial one
        d_in = (1 << 14) + 5
        if fill == "top":
            a = np.full((2, d_in), M61.p - 1, dtype=np.uint64)
            b = np.full((d_in, 3), M61.p - 1, dtype=np.uint64)
        else:
            rng = np.random.default_rng(13)
            a = self.field_operand(rng, (2, d_in))
            b = self.field_operand(rng, (d_in, 3))
        self.check_equals_kernel(a, b, 5, 16)

    @pytest.mark.parametrize("shape", [(3, 4), (1, 4), (2, 5), (2, 2, 5)],
                             ids=["more-rows", "fewer-rows", "wider", "stack-wider"])
    def test_product_outside_plan_rejected(self, shape):
        ctx = HEContext(HEParams(slot_count=64))
        plan = plan_reducing(2, 3, 4, 64)
        reducing_field_slots(np.ones((2, 2, 4), dtype=np.uint64), plan, ctx, KEYS.public)
        with pytest.raises(PlanError):
            reducing_field_slots(np.ones(shape, dtype=np.uint64), plan, ctx, KEYS.public)


class TestNoiseTolerance:
    @pytest.mark.parametrize("shape", [(2, 48), (32, 32)])
    def test_relative_frobenius_under_default_noise(self, shape):
        d_out, d_in = shape
        ctx = HEContext(HEParams(noise_stddev=1e-9, seed=3))
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, size=(d_out, d_in))
        m = squaring_max_batch(d_in, N)
        b = rng.uniform(-1, 1, size=(d_in, m))
        got, _ = run_squaring(a, b, ctx)
        want = matmul_oracle(a, b)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 1e-6
