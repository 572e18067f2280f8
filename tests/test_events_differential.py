"""Differential layer: the single-flow event kernel vs the vector engine.

:meth:`SenderSimulator.run` is the single-flow special case of the event
kernel, seeded with ``default_rng(seed)``.  The vector engine's oracle
mode replays the kernel's exact per-flow streams, and ``run_multiflow``
hands flow 0 the first child of its root ``SeedSequence`` — so
``run(seed=SeedSequence(s).spawn(1)[0])`` and a one-flow vector run
seeded with ``SeedSequence(s)`` must give *identical* per-packet traces
and ``usable_*`` lists.  A separate check compares the kernel against
the spawned-stream multi-flow wiring across seeds, which genuinely is a
statistical comparison.
"""

import numpy as np
import pytest

from repro.core import standard_policies
from repro.core.policies import EncryptionPolicy
from repro.testbed.devices import GALAXY_S2, HTC_AMAZE_4G
from repro.testbed.experiment import ExperimentConfig, run_experiment
from repro.testbed.multiflow import run_multiflow
from repro.testbed.simulator import LinkConfig, SenderSimulator
from repro.testbed.transport import HTTP_TCP


def _trace_tuples(run):
    return [
        (t.sequence_number, t.enqueue_time_s, t.service_start_s,
         t.encryption_time_s, t.transmit_time_s, t.departure_time_s,
         t.encrypted, t.delivered, t.attempts)
        for t in run.trace
    ]


def _both(simulator, policy, seed):
    """(kernel run, vector oracle run) of one transfer from one root seed."""
    kernel = simulator.run(
        policy, seed=np.random.SeedSequence(seed).spawn(1)[0])
    vector = run_multiflow(
        simulator.bitstream, flows=1, policy=policy,
        device=simulator.device, transport=simulator.transport,
        link=simulator.link, engine="vector", sampling="oracle",
        seed=np.random.SeedSequence(seed),
    ).flows[0]
    return kernel, vector


def _assert_identical(kernel, vector):
    assert _trace_tuples(kernel) == _trace_tuples(vector)
    assert kernel.usable_by_receiver == vector.usable_by_receiver
    assert kernel.usable_by_eavesdropper == vector.usable_by_eavesdropper


@pytest.fixture(scope="module")
def simulator(slow_bitstream):
    return SenderSimulator(slow_bitstream, device=GALAXY_S2)


@pytest.fixture(scope="module")
def lossy_simulator(slow_bitstream):
    lossy = LinkConfig.default(channel_error_rate=0.2)
    return SenderSimulator(slow_bitstream, device=GALAXY_S2,
                           link=LinkConfig(phy=lossy.phy, dcf=lossy.dcf,
                                           retry_limit=0))


class TestSingleFlowIdentical:
    @pytest.mark.parametrize("policy_name", ["none", "I", "P", "all"])
    def test_trace_identical_per_policy(self, simulator, policy_name):
        policy = standard_policies("AES256")[policy_name]
        _assert_identical(*_both(simulator, policy, seed=11))

    @pytest.mark.parametrize("seed", [0, 7, 2013])
    def test_trace_identical_across_seeds(self, simulator, lossy_simulator,
                                          seed):
        policy = standard_policies("AES256")["I"]
        _assert_identical(*_both(simulator, policy, seed=seed))
        kernel, vector = _both(lossy_simulator, policy, seed=seed)
        _assert_identical(kernel, vector)
        assert not all(kernel.usable_by_receiver)  # losses really land

    def test_mixture_policy_identical(self, simulator):
        policy = EncryptionPolicy("i_plus_p_fraction", "3DES", fraction=0.2)
        _assert_identical(*_both(simulator, policy, seed=3))

    def test_seed_sequence_identical(self, simulator):
        """A spawned SeedSequence child seeds the kernel reproducibly and
        names the stream the vector oracle gives flow 0."""
        policy = standard_policies("AES256")["all"]
        kernel, vector = _both(simulator, policy, seed=42)
        again = simulator.run(
            policy, seed=np.random.SeedSequence(42).spawn(1)[0])
        _assert_identical(kernel, vector)
        assert _trace_tuples(again) == _trace_tuples(kernel)

    def test_tcp_on_lossy_link_identical(self, slow_bitstream):
        """The retransmission path (extra RTO delays, attempts > 1)."""
        lossy = LinkConfig.default(channel_error_rate=0.2)
        lossy = LinkConfig(phy=lossy.phy, dcf=lossy.dcf, retry_limit=0)
        simulator = SenderSimulator(slow_bitstream, device=HTC_AMAZE_4G,
                                    link=lossy, transport=HTTP_TCP)
        kernel, vector = _both(
            simulator, standard_policies("AES256")["I"], seed=12)
        _assert_identical(kernel, vector)
        assert any(t.attempts > 1 for t in kernel.trace)

    def test_engine_constructor_default(self, slow_clip, slow_bitstream,
                                        simulator):
        """A config built without an engine runs SenderSimulator.run:
        the single-flow kernel on ``default_rng(seed)``."""
        policy = standard_policies("AES256")["I"]
        config = ExperimentConfig(policy=policy, device=GALAXY_S2,
                                  sensitivity_fraction=0.55,
                                  decode_video=False)
        assert config.engine is None
        result = run_experiment(slow_clip, slow_bitstream, config, seed=5)
        direct = simulator.run(policy, seed=5)
        assert _trace_tuples(result.run) == _trace_tuples(direct)
        assert result.mean_delay_ms == direct.mean_delay_ms

    def test_unknown_engine_rejected(self, slow_bitstream):
        """One sender engine: no engine switch on the simulator, and the
        retired legacy loop is an unknown engine to configs."""
        with pytest.raises(TypeError, match="engine"):
            SenderSimulator(slow_bitstream, device=GALAXY_S2,
                            engine="events")
        simulator = SenderSimulator(slow_bitstream, device=GALAXY_S2)
        with pytest.raises(TypeError, match="engine"):
            simulator.run(standard_policies("AES256")["I"], seed=1,
                          engine="events")
        for engine in ("legacy", "simpy"):
            with pytest.raises(ValueError, match="engine"):
                ExperimentConfig(policy=standard_policies("AES256")["I"],
                                 device=GALAXY_S2,
                                 sensitivity_fraction=0.55, engine=engine)


@pytest.mark.slow
class TestSingleFlowStatistical:
    def test_multiflow_one_flow_matches_kernel(self, slow_bitstream):
        """run_multiflow(flows=1) draws from spawned streams, so it can
        only match SenderSimulator.run's ``default_rng(seed)`` streams
        statistically: mean per-packet delay over several seeds must
        agree within a few percent."""
        policy = standard_policies("AES256")["I"]
        simulator = SenderSimulator(slow_bitstream, device=GALAXY_S2)
        seeds = range(8)
        simulator_mean = np.mean([
            simulator.run(policy, seed=seed).mean_delay_ms
            for seed in seeds
        ])
        kernel_mean = np.mean([
            run_multiflow(slow_bitstream, flows=1, policy=policy,
                          device=GALAXY_S2, seed=seed).mean_delay_ms
            for seed in seeds
        ])
        assert kernel_mean == pytest.approx(simulator_mean, rel=0.05)
