import numpy as np
import pytest

from secshap import parties
from secshap.hebackend import CostMeter, HEContext, HEParams, generate_keypair
from secshap.parties import (
    SERVER_A,
    SERVER_P,
    AssignmentError,
    Party,
    Router,
    assign_decryptors,
    client_name,
    payload_bytes,
    validate_assignment,
)


class TestPayloadBytes:
    def setup_method(self):
        self.he = HEParams(slot_count=2048)

    def test_ciphertext_size(self):
        ctx = HEContext(self.he)
        keys = generate_keypair("pb")
        ct = ctx.encrypt_slots([1.0], keys.public)
        assert payload_bytes(ct, self.he) == 2 * 2048 * 8

    def test_matrix_and_labels(self):
        # a real matrix (float64) and a label vector (int64), 8 B per entry
        assert payload_bytes(np.zeros((3, 4)), self.he) == 96
        assert payload_bytes(np.array([1, 2, 3], dtype=np.int64), self.he) == 24

    def test_field_share_array(self):
        shares = np.ones((2, 3), dtype=np.uint64)
        assert payload_bytes(shares, self.he) == 6 * 8  # one uint64 per 61-bit element

    def test_composites_and_scalars(self):
        keys = generate_keypair("pb2")
        assert payload_bytes([keys.public, keys.private], self.he) == 64
        assert payload_bytes(3.14, self.he) == 8
        assert payload_bytes(None, self.he) == 0

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            payload_bytes(object(), self.he)


class TestRouter:
    def test_bytes_metered_per_pair(self):
        meter = CostMeter()
        router = Router(meter, HEParams())
        a = router.register(Party("client_0"))
        router.register(Party(SERVER_P))
        router.send("client_0", SERVER_P, np.zeros((2, 2)))
        router.send("client_0", SERVER_P, np.zeros((1, 1)))
        assert meter.bytes_sent == {("client_0", SERVER_P): 32 + 8}
        assert a.bytes_out == 40

    def test_total_equals_sum_of_messages(self):
        meter = CostMeter()
        router = Router(meter, HEParams())
        router.register(Party("client_0"))
        router.register(Party(SERVER_P))
        router.register(Party(SERVER_A))
        sizes = []
        for k in range(1, 5):
            payload = np.zeros((k, k))
            sizes.append(payload_bytes(payload, HEParams()))
            router.send("client_0", SERVER_P if k % 2 else SERVER_A, payload)
        assert meter.total_bytes() == sum(sizes)

    def test_unknown_party(self):
        router = Router(CostMeter(), HEParams())
        router.register(Party(SERVER_P))
        with pytest.raises(KeyError):
            router.send("ghost", SERVER_P, 1)

    @pytest.mark.parametrize("sender, receiver, role", [
        (["client_0"], SERVER_P, "sender"),
        (("client_0",), SERVER_P, "sender"),
        ("client_0", [SERVER_P], "receiver"),
        ("client_0", (SERVER_P,), "receiver"),
    ])
    def test_non_string_party_rejected(self, sender, receiver, role):
        meter = CostMeter()
        router = Router(meter, HEParams())
        router.register(Party("client_0"))
        router.register(Party(SERVER_P))
        with pytest.raises(TypeError, match=f"^{role} must be one party's name"):
            router.send(sender, receiver, 1)
        assert meter.bytes_sent == {}
        assert all(party.bytes_out == 0 for party in router.parties.values())


class TestValidateAssignment:
    def test_valid_round_robin_n4(self):
        # L=3, owner skipped, alternating assignees
        sequence = [1, 2, 3, 2, 3]  # i_1..i_{L+2} with owner 0 absent
        assert validate_assignment(sequence, 4, 3, "basic", 0, {1}) == []

    def test_n3_basic_rejected(self):
        violations = validate_assignment([0, 1, 2], 3, 1, "basic", None, {0})
        assert any("n >= 4" in v for v in violations)

    def test_full_level_needs_l_plus_2(self):
        violations = validate_assignment([0, 1, 2, 3], 3, 2, "full", None, {0})
        assert any("L + 2" in v for v in violations)

    def test_consecutive_equal_flagged(self):
        violations = validate_assignment([1, 1, 2], 4, 1, "basic", None, {1})
        assert any("consecutive" in v for v in violations)

    def test_owner_as_assignee_flagged(self):
        violations = validate_assignment([1, 0, 2], 4, 1, "basic", 0, {1})
        assert any("model owner" in v for v in violations)

    def test_label_client_owning_batch_flagged(self):
        violations = validate_assignment([1, 2, 3], 4, 1, "basic", None, {1, 2})
        assert any("label client" in v for v in violations)

    def test_full_distinctness(self):
        violations = validate_assignment([0, 1, 0, 1, 2], 5, 3, "full", None, {0})
        assert any("pairwise distinct" in v for v in violations)

    def test_wrong_length(self):
        violations = validate_assignment([0, 1], 4, 3, "basic", None, {0})
        assert any("length" in v for v in violations)


class TestAssignDecryptors:
    def test_satisfies_policy_across_many_cases(self):
        clients = list(range(5))
        for owner in [None, 0, 4]:
            for batch in [{1}, {1, 2}, {2, 3}]:
                for layers in (1, 2, 3):
                    for offset in range(4):
                        if owner is not None and owner in batch:
                            continue
                        seq = assign_decryptors(clients, layers, owner, batch, "basic", offset)
                        assert validate_assignment(seq, 5, layers, "basic", owner, batch) == []

    def test_backtracks_out_of_dead_ends(self):
        # owner 4 plus three batch owners leaves exactly one label candidate
        seq = assign_decryptors(range(5), 2, 4, {1, 2, 3}, "basic", 0)
        assert validate_assignment(seq, 5, 2, "basic", 4, {1, 2, 3}) == []
        assert seq[2] == 0  # the only client allowed to see the labels

    def test_full_level_distinct(self):
        seq = assign_decryptors(range(6), 3, 0, {1}, "full", 0)
        assert validate_assignment(seq, 6, 3, "full", 0, {1}) == []
        assert len(set(seq[:4])) == 4

    def test_impossible_assignment_raises(self):
        with pytest.raises(AssignmentError):
            assign_decryptors([0, 1], 1, 0, {1}, "basic", 0)  # only one eligible client

    def test_offset_varies_sequences_deterministically(self):
        seqs = {tuple(assign_decryptors(range(5), 2, None, {0}, "basic", off)) for off in range(5)}
        assert len(seqs) > 1
        again = {tuple(assign_decryptors(range(5), 2, None, {0}, "basic", off)) for off in range(5)}
        assert seqs == again

    def test_client_name(self):
        assert client_name(3) == "client_3"

    def test_cache_matches_uncached_search(self):
        # the cache keys on offset % pool; the uncached search takes the raw
        # offset, as every call did before the cache
        search = parties._decryptor_sequence.__wrapped__
        failures = 0
        for n in range(4, 9):
            clients = list(range(n))
            for layers in (1, 2, 3):
                for owner in (None, 0, n - 1):
                    for batch in ({1}, {1, 2}, {n - 2, n - 1} - {owner}, set(range(1, n - 1))):
                        for level in ("basic", "full"):
                            for offset in range(2 * n + 1):
                                args = (layers, owner, batch, level, offset)
                                try:
                                    want = list(search(tuple(clients), layers, owner,
                                                       frozenset(batch), level, offset))
                                except AssignmentError as err:
                                    for _ in range(2):  # an exception is never cached
                                        with pytest.raises(AssignmentError) as got:
                                            assign_decryptors(clients, *args)
                                        assert str(got.value) == str(err)
                                    failures += 1
                                    continue
                                assert assign_decryptors(clients, *args) == want
                                assert assign_decryptors(reversed(clients), *args) == want
        assert failures > 0


def test_ciphertext_stack_sizes_per_ciphertext():
    he = HEParams(slot_count=2048)
    ctx = HEContext(he)
    stack = ctx.encrypt_slots(np.zeros((3, 2, 5)), generate_keypair("stack").public)
    assert payload_bytes(stack, he) == 6 * payload_bytes(stack[0, 0], he) == 6 * 2 * 2048 * 8
