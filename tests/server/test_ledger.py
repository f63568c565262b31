"""Unit tests for the transactional reservation ledger."""

import random

import pytest

from repro.domain.device import Device, DeviceClass
from repro.domain.space import SmartSpace
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceComponent, ServiceEdge, ServiceGraph
from repro.network.links import LinkClass
from repro.resources.vectors import ResourceVector
from repro.server.ledger import (
    LedgerConflictError,
    ReservationLedger,
    TransactionState,
)

from tests.server.conftest import split_assignment, stream_graph


class TestTwoPhaseLifecycle:
    def test_prepare_commit_allocates(self, pair_server, ledger):
        txn = ledger.begin(owner="s1")
        ledger.prepare(txn, stream_graph(), split_assignment())
        assert txn.state is TransactionState.PREPARED
        allocations, reservations = ledger.commit(txn)
        assert txn.state is TransactionState.COMMITTED
        assert {a.device_id for a in allocations} == {"d1", "d2"}
        assert len(reservations) == 1
        d1 = pair_server.domain.device("d1")
        assert d1.allocated == ResourceVector(memory=40.0, cpu=0.5)
        assert ledger.audit() == []

    def test_release_frees_everything(self, pair_server, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        ledger.commit(txn)
        ledger.release(txn)
        assert txn.state is TransactionState.RELEASED
        for name in ("d1", "d2"):
            assert pair_server.domain.device(name).allocated.is_zero()
        assert pair_server.network.available_bandwidth("d1", "d2") == pytest.approx(
            100.0
        )

    def test_abort_before_commit_leaves_no_trace(self, pair_server, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        ledger.abort(txn)
        assert txn.state is TransactionState.ABORTED
        assert pair_server.domain.device("d1").allocated.is_zero()
        # A full-capacity follow-up must now fit.
        txn2 = ledger.begin()
        ledger.prepare(txn2, stream_graph(memory=100.0, cpu=2.0), split_assignment())

    def test_abort_is_idempotent(self, ledger):
        txn = ledger.begin()
        ledger.abort(txn)
        ledger.abort(txn)
        assert txn.state is TransactionState.ABORTED

    def test_release_of_uncommitted_aborts(self, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        ledger.release(txn)
        assert txn.state is TransactionState.ABORTED

    def test_wrong_state_rejected(self, ledger):
        txn = ledger.begin()
        with pytest.raises(LedgerConflictError):
            ledger.commit(txn)  # never prepared

    def test_foreign_transaction_rejected(self, pair_server, ledger):
        other = ReservationLedger(pair_server).begin()
        with pytest.raises(LedgerConflictError):
            ledger.prepare(other, stream_graph(), split_assignment())


class TestConflictDetection:
    def test_pending_hold_blocks_competing_prepare(self, ledger):
        first = ledger.begin()
        ledger.prepare(first, stream_graph(memory=60.0), split_assignment())
        second = ledger.begin()
        with pytest.raises(LedgerConflictError) as info:
            ledger.prepare(second, stream_graph(memory=60.0), split_assignment())
        assert second.state is TransactionState.PENDING
        assert any("d1" in c for c in info.value.conflicts)

    def test_committed_capacity_blocks_prepare(self, ledger):
        first = ledger.begin()
        ledger.prepare(first, stream_graph(memory=60.0), split_assignment())
        ledger.commit(first)
        second = ledger.begin()
        with pytest.raises(LedgerConflictError):
            ledger.prepare(second, stream_graph(memory=60.0), split_assignment())

    def test_link_bandwidth_conflict(self, ledger):
        first = ledger.begin()
        ledger.prepare(
            first, stream_graph(memory=10.0, throughput=80.0), split_assignment()
        )
        second = ledger.begin()
        with pytest.raises(LedgerConflictError) as info:
            ledger.prepare(
                second, stream_graph(memory=10.0, throughput=80.0), split_assignment()
            )
        assert any("Mbps" in c for c in info.value.conflicts)

    def test_offline_device_conflicts_at_prepare(self, pair_server, ledger):
        pair_server.domain.device("d2").go_offline()
        txn = ledger.begin()
        with pytest.raises(LedgerConflictError) as info:
            ledger.prepare(txn, stream_graph(), split_assignment())
        assert any("offline" in c for c in info.value.conflicts)

    def test_device_offline_between_prepare_and_commit(self, pair_server, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        pair_server.domain.device("d2").go_offline()
        with pytest.raises(LedgerConflictError):
            ledger.commit(txn)
        assert txn.state is TransactionState.ABORTED
        # Partial acquisitions must have been rolled back.
        assert pair_server.domain.device("d1").allocated.is_zero()
        assert ledger.audit() == []


class TestSnapshots:
    def test_environment_subtracts_pending_holds(self, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(memory=60.0), split_assignment())
        environment, _devices = ledger.environment()
        availability = {
            c.device_id: c.available for c in environment.devices
        }
        assert availability["d1"]["memory"] == pytest.approx(40.0)
        assert availability["d2"]["memory"] == pytest.approx(40.0)

    def test_environment_subtracts_pending_bandwidth(self, ledger):
        txn = ledger.begin()
        ledger.prepare(
            txn, stream_graph(memory=10.0, throughput=70.0), split_assignment()
        )
        environment, _devices = ledger.environment()
        assert environment.bandwidth("d1", "d2") == pytest.approx(30.0)

    def test_version_moves_on_every_transition(self, ledger):
        v0 = ledger.version
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        v1 = ledger.version
        assert v1 > v0
        ledger.commit(txn)
        v2 = ledger.version
        assert v2 > v1
        ledger.release(txn)
        assert ledger.version > v2

    def test_utilization_tracks_commitments(self, ledger):
        assert ledger.utilization() == pytest.approx(0.0)
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(memory=80.0), split_assignment())
        assert ledger.utilization() == pytest.approx(0.8)
        ledger.commit(txn)
        assert ledger.utilization() == pytest.approx(0.8)
        ledger.release(txn)
        assert ledger.utilization() == pytest.approx(0.0)

    def test_transactions_filterable_by_state(self, ledger):
        a = ledger.begin()
        ledger.prepare(a, stream_graph(memory=10.0), split_assignment())
        ledger.commit(a)
        b = ledger.begin()
        ledger.abort(b)
        assert ledger.transactions(TransactionState.COMMITTED) == [a]
        assert ledger.transactions(TransactionState.ABORTED) == [b]
        assert len(ledger.transactions()) == 2


class TestColocation:
    def test_colocated_edge_needs_no_bandwidth(self, pair_server, ledger):
        from repro.graph.cuts import Assignment

        txn = ledger.begin()
        ledger.prepare(
            txn,
            stream_graph(memory=20.0, throughput=500.0),
            Assignment({"src": "d1", "sink": "d1"}),
        )
        _allocations, reservations = ledger.commit(txn)
        assert reservations == []
        assert pair_server.domain.device("d1").allocated == ResourceVector(
            memory=40.0, cpu=1.0
        )


class TestGroupedRounds:
    def test_prepare_many_later_items_see_earlier_holds(self, pair_server, ledger):
        """Two 60MB plans against 100MB devices: exactly one holds."""
        txn_a, txn_b = ledger.begin(owner="a"), ledger.begin(owner="b")
        results = ledger.prepare_many(
            [
                (txn_a, stream_graph(memory=60.0), split_assignment()),
                (txn_b, stream_graph(memory=60.0), split_assignment()),
            ]
        )
        assert results[0] is None
        assert isinstance(results[1], LedgerConflictError)
        assert txn_a.state is TransactionState.PREPARED
        # The loser is left un-prepared for the caller to abort.
        assert txn_b.state is TransactionState.PENDING
        ledger.abort(txn_b)
        ledger.commit(txn_a)
        assert ledger.audit() == []

    def test_commit_many_returns_token_pairs(self, pair_server, ledger):
        txns = [ledger.begin(owner=f"t{i}") for i in range(2)]
        prepare_results = ledger.prepare_many(
            [
                (txn, stream_graph(memory=30.0), split_assignment())
                for txn in txns
            ]
        )
        assert prepare_results == [None, None]
        commit_results = ledger.commit_many(txns)
        for txn, result in zip(txns, commit_results):
            assert txn.state is TransactionState.COMMITTED
            allocations, reservations = result
            assert {a.device_id for a in allocations} == {"d1", "d2"}
            assert len(reservations) == 1
        d1 = pair_server.domain.device("d1")
        assert d1.allocated == ResourceVector(memory=60.0, cpu=1.0)
        for txn in txns:
            ledger.release(txn)
        assert d1.allocated.is_zero()
        assert ledger.audit() == []

    def test_commit_many_isolates_a_mid_batch_failure(self, pair_server, ledger):
        """An offline device aborts only its own transaction in the group."""
        txns = [ledger.begin(owner=f"t{i}") for i in range(2)]
        ledger.prepare_many(
            [
                (txns[0], stream_graph(memory=20.0), split_assignment()),
                (
                    txns[1],
                    stream_graph(memory=20.0),
                    Assignment({"src": "d2", "sink": "d2"}),
                ),
            ]
        )
        pair_server.domain.device("d2").go_offline()
        results = ledger.commit_many(txns)
        # d1+d2 txn fails on the offline device; both of its partial
        # acquisitions roll back. The d2-only txn also fails.
        assert all(isinstance(r, LedgerConflictError) for r in results)
        assert all(t.state is TransactionState.ABORTED for t in txns)
        assert pair_server.domain.device("d1").allocated.is_zero()
        assert ledger.audit() == []

    def test_grouped_rounds_bump_versions(self, ledger):
        before = ledger.version
        txn = ledger.begin()
        ledger.prepare_many([(txn, stream_graph(), split_assignment())])
        mid = ledger.version
        assert mid > before
        ledger.commit_many([txn])
        assert ledger.version > mid


class TestAccountingDifferential:
    """Seeded random lifecycles against the vector-based reference formulas.

    ``utilization()`` and ``environment()`` read raw floats and skip empty
    pending defaults; after every step their results must equal, float
    for float, what the plain ``allocated + pending`` and
    ``available() - pending`` vector formulas give.
    """

    DEVICES = ("d1", "d2", "d3", "d4")

    @staticmethod
    def build_server(rng):
        space = SmartSpace()
        server = space.create_domain("diff")
        for index, name in enumerate(TestAccountingDifferential.DEVICES):
            capacity = {
                "memory": round(rng.uniform(60.0, 140.0), 3),
                "cpu": round(rng.uniform(0.5, 3.0), 3),
            }
            if index == 2:
                capacity["disk"] = 0.0  # cap <= 0: never counts
            if index == 3:
                capacity["disk"] = 50.0  # a name no load asks for
            server.join(
                Device(name, DeviceClass.PC, capacity=ResourceVector(capacity))
            )
        names = TestAccountingDifferential.DEVICES
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                server.network.connect(first, second, LinkClass.FAST_ETHERNET)
        return server

    @staticmethod
    def random_plan(rng, step):
        graph = ServiceGraph(name=f"plan{step}")
        count = rng.randint(1, 4)
        for index in range(count):
            resources = {
                "memory": rng.choice([0.1, 0.2, 0.3, 1.7, 12.5])
                * rng.randint(1, 20),
                "cpu": rng.choice([0.0, 0.05, 0.1, 0.3]) * rng.randint(1, 4),
            }
            if rng.random() < 0.2:
                resources["gpu"] = 0.0  # unknown to every device, zero demand
            graph.add_component(
                ServiceComponent(
                    component_id=f"c{index}",
                    service_type=f"t{index}",
                    resources=ResourceVector(resources),
                )
            )
            if index:
                graph.add_edge(
                    ServiceEdge(f"c{index - 1}", f"c{index}", rng.uniform(0.0, 30.0))
                )
        assignment = Assignment(
            {
                f"c{index}": rng.choice(TestAccountingDifferential.DEVICES)
                for index in range(count)
            }
        )
        return graph, assignment

    @staticmethod
    def raw(vector):
        return {name: vector[name] for name in vector}

    def reference_utilization(self, ledger):
        worst = 0.0
        for device in ledger.server.available_devices():
            pending = self.raw(ledger._pending_device.get(device.device_id, {}))
            allocated = self.raw(device.allocated)
            used = {
                n: allocated.get(n, 0.0) + pending.get(n, 0.0)
                for n in set(allocated) | set(pending)
            }
            for name in device.capacity.names():
                cap = device.capacity[name]
                if cap <= 0:
                    continue
                worst = max(worst, min(1.0, used.get(name, 0.0) / cap))
        return worst

    def reference_availability(self, ledger, device):
        pending = self.raw(ledger._pending_device.get(device.device_id, {}))
        available = self.raw(device.available())
        return {
            n: max(0.0, available.get(n, 0.0) - pending.get(n, 0.0))
            for n in set(available) | set(pending)
        }

    def check(self, ledger):
        assert repr(ledger.utilization()) == repr(self.reference_utilization(ledger))
        environment, devices = ledger.environment()
        assert sorted(c.device_id for c in environment.devices) == sorted(
            d.device_id for d in ledger.server.available_devices()
        )
        for candidate in environment.devices:
            got = self.raw(candidate.available)
            expected = self.reference_availability(ledger, devices[candidate.device_id])
            assert set(got) == set(expected)
            for name, value in expected.items():
                assert repr(got[name]) == repr(value), (candidate.device_id, name)
        assert ledger.audit() == []

    @pytest.mark.parametrize("seed", range(6))
    def test_random_lifecycles_match_reference(self, seed):
        rng = random.Random(seed)
        server = self.build_server(rng)
        ledger = ReservationLedger(server)
        prepared, committed = [], []
        outcomes = {"prepared": 0, "conflicts": 0, "committed": 0, "released": 0}
        self.check(ledger)
        for step in range(150):
            action = rng.choice(("prepare", "prepare", "commit", "abort", "release"))
            if action == "prepare":
                txn = ledger.begin(owner=f"s{step}")
                graph, assignment = self.random_plan(rng, step)
                try:
                    ledger.prepare(txn, graph, assignment)
                except LedgerConflictError:
                    outcomes["conflicts"] += 1
                    ledger.abort(txn)
                else:
                    outcomes["prepared"] += 1
                    prepared.append(txn)
            elif action == "commit" and prepared:
                txn = prepared.pop(rng.randrange(len(prepared)))
                ledger.commit(txn)
                outcomes["committed"] += 1
                committed.append(txn)
            elif action == "abort" and prepared:
                ledger.abort(prepared.pop(rng.randrange(len(prepared))))
            elif action == "release" and committed:
                ledger.release(committed.pop(rng.randrange(len(committed))))
                outcomes["released"] += 1
            self.check(ledger)
        # The walk exercised every path, conflicts included.
        assert all(count > 0 for count in outcomes.values()), outcomes
