"""repro.scenarios: the scenario zoo end to end.

Four layers, mirroring the subsystem's own structure: the typed
injection vocabulary and its spec round-trips; the :class:`Scenario`
spec / registry / loader; the scheduler-core injection mechanics
(faults evict and requeue, power caps bound placement, elastic windows
shrink); and the golden claim — a fault-injection scenario is
*bit-identical* whether the build runs unsharded, sharded on a process
pool, or sharded through the durable fabric (the
``test_sched_shard.py`` contract extended to injected timelines, with
a power cap deliberately spanning the shard cut).
"""

import dataclasses
import hashlib
import json
import os
import sys

import pytest

from repro._util.errors import ConfigError, DataError
from repro._util.timefmt import month_bounds
from repro.cluster import get_system
from repro.fabric.runners import BUILTIN_RUNNERS
from repro.interop import write_swf
from repro.scenarios import (
    FederationSpec,
    Scenario,
    builtin_scenarios,
    calibrate_trace,
    load_scenario,
    resolve_scenario,
    run_federated,
    run_scenario,
    run_scenario_payload,
    scenario_from_spec,
    scenario_sim_config,
    scenario_to_spec,
    sweep_scenario,
)
from repro.scenarios.cli import main as cli_main
from repro.scenarios.run import _route
from repro.sched import (
    ElasticWindow,
    NodeFault,
    PowerCap,
    ScenarioInjections,
    SimConfig,
    Simulator,
    simulate_month,
)
from repro.sched.priority import PriorityModel
from repro.slurm.records import check_job_invariants
from repro.workflows import SchedulingAnalysisWorkflow, WorkflowConfig
from repro.workflows.shard import (
    run_sharded,
    simconfig_from_spec,
    simconfig_to_spec,
)
from repro.workload.generate import WorkloadGenerator
from repro.workload.jobs import JobRequest
from repro.workload.profiles import workload_for

SYS = get_system("testsys")          # 16 nodes, batch + debug
_DAY = 86400

MONTHS = ["2024-01", "2024-02"]
START = month_bounds(MONTHS[0])[0]
CUT = month_bounds(MONTHS[0])[1]     # the shard boundary

#: a full-machine fault (16 nodes on testsys forces evictions under
#: load), a power cap straddling the shard cut (so capped state must
#: survive the handoff), and an elastic window in the second month
INJECTIONS = ScenarioInjections(
    faults=(NodeFault(t=START + 5 * _DAY, nodes=16,
                      duration_s=6 * 3600),),
    power_caps=(PowerCap(start=CUT - _DAY, end=CUT + _DAY, frac=0.5),),
    elastic=(ElasticWindow(start=CUT + 5 * _DAY,
                           end=CUT + 5 * _DAY + 8 * 3600, frac=0.9),),
)

#: same base as test_sched_shard.CONFIG (deep queue at the boundary),
#: plus the injection stream
CONFIG = SimConfig(seed=7, fairshare=True, requeue_node_fail=True,
                   priority=PriorityModel(fairshare_weight=20_000),
                   scenario=INJECTIONS)


def _stream(days=2, rate=1.0, seed=3):
    gen = WorkloadGenerator(workload_for("testsys"), seed=seed,
                            rate_scale=rate)
    return gen.generate(START, START + days * _DAY)


# -- injection vocabulary -----------------------------------------------------------


class TestInjectionSpecs:
    def test_round_trip_through_json(self):
        spec = json.loads(json.dumps(INJECTIONS.to_spec()))
        assert ScenarioInjections.from_spec(spec) == INJECTIONS

    def test_shifted_moves_every_time(self):
        s = INJECTIONS.shifted(100)
        assert s.faults[0].t == INJECTIONS.faults[0].t + 100
        assert s.power_caps[0].start == INJECTIONS.power_caps[0].start + 100
        assert s.power_caps[0].end == INJECTIONS.power_caps[0].end + 100
        assert s.elastic[0].start == INJECTIONS.elastic[0].start + 100
        assert s.shifted(-100) == INJECTIONS

    def test_empty_is_falsy(self):
        assert not ScenarioInjections()
        assert INJECTIONS

    @pytest.mark.parametrize("bad", [
        lambda: NodeFault(t=0, nodes=0, duration_s=60),
        lambda: NodeFault(t=0, nodes=4, duration_s=0),
        lambda: NodeFault(t=0, nodes=4, duration_s=60, policy="retry"),
        lambda: PowerCap(start=100, end=100, frac=0.5),
        lambda: PowerCap(start=0, end=100, frac=1.5),
        lambda: ElasticWindow(start=0, end=100, frac=0.0),
        lambda: ElasticWindow(start=0, end=100, frac=0.5, classes=()),
    ])
    def test_invalid_injections_rejected(self, bad):
        with pytest.raises(ConfigError):
            bad()

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ScenarioInjections.from_spec({"faults": [], "surprise": 1})


class TestSimConfigSpecWithScenario:
    def test_scenario_survives_the_shard_payload(self):
        spec = json.loads(json.dumps(simconfig_to_spec(CONFIG)))
        assert simconfig_from_spec(spec) == CONFIG

    def test_none_scenario_still_round_trips(self):
        cfg = SimConfig(seed=3)
        assert simconfig_from_spec(simconfig_to_spec(cfg)) == cfg


# -- scenario specs, registry, loader -----------------------------------------------


class TestScenarioSpec:
    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_every_builtin_round_trips(self, name):
        scn = builtin_scenarios()[name]
        spec = json.loads(json.dumps(scenario_to_spec(scn)))
        assert scenario_from_spec(spec) == scn

    def test_version_mismatch_rejected(self):
        spec = scenario_to_spec(builtin_scenarios()["baseline"])
        spec["version"] = 99
        with pytest.raises(DataError, match="version"):
            scenario_from_spec(spec)

    def test_unknown_keys_rejected(self):
        spec = scenario_to_spec(builtin_scenarios()["baseline"])
        spec["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            scenario_from_spec(spec)

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "x", "months": ()},
        {"name": "x", "months": ("2024-02", "2024-01")},
        {"name": "x", "kind": "multiverse"},
        {"name": "x", "rate_scale": 0.0},
        {"name": "x", "rate_scale": 1.5},
        {"name": "x", "kind": "single", "federation": FederationSpec()},
    ])
    def test_invalid_scenarios_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Scenario(**kwargs)

    def test_federated_autofills_spec(self):
        scn = Scenario(name="f", kind="federated")
        assert scn.federation == FederationSpec()

    @pytest.mark.parametrize("kwargs", [
        {"systems": ("frontier", "frontier")},
        {"systems": ("frontier",)},
        {"routing": "dice"},
        {"split_nodes": 0},
        {"inject": "summit"},
    ])
    def test_invalid_federation_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FederationSpec(**kwargs)


class TestRegistryAndLoad:
    def test_zoo_covers_every_axis(self):
        zoo = builtin_scenarios()
        assert {"baseline", "node-storm", "power-brownout",
                "elastic-burst", "mixed-ops",
                "frontier-andes"} <= set(zoo)
        assert any(s.injections.faults for s in zoo.values())
        assert any(s.injections.power_caps for s in zoo.values())
        assert any(s.injections.elastic for s in zoo.values())
        assert any(s.kind == "federated" for s in zoo.values())

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(
            scenario_to_spec(builtin_scenarios()["node-storm"])))
        assert load_scenario(str(path)) == builtin_scenarios()["node-storm"]

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tomllib needs python >= 3.11")
    def test_load_toml_file(self, tmp_path):
        path = tmp_path / "scn.toml"
        path.write_text(
            'name = "from-toml"\nsystem = "testsys"\n'
            'months = ["2024-01"]\nrate_scale = 0.1\n\n'
            '[[injections.faults]]\nt = 3600\nnodes = 4\n'
            'duration_s = 1800\n')
        scn = load_scenario(str(path))
        assert scn.name == "from-toml"
        assert scn.injections.faults[0].nodes == 4

    def test_shipped_example_specs_load(self):
        root = os.path.join(os.path.dirname(__file__), "..",
                            "examples", "scenarios")
        names = [n for n in sorted(os.listdir(root))
                 if n.endswith(".json") or (n.endswith(".toml")
                                            and sys.version_info >= (3, 11))]
        assert names
        for name in names:
            scn = load_scenario(os.path.join(root, name))
            assert scn.name == os.path.splitext(name)[0]

    def test_resolve_accepts_every_ref_form(self, tmp_path):
        storm = builtin_scenarios()["node-storm"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_spec(storm)))
        assert resolve_scenario("node-storm") == storm
        assert resolve_scenario(storm) is storm
        assert resolve_scenario(scenario_to_spec(storm)) == storm
        assert resolve_scenario(str(path)) == storm

    @pytest.mark.parametrize("ref", ["no-such-zoo-entry", 42])
    def test_resolve_rejects_unknown(self, ref):
        with pytest.raises(ConfigError):
            resolve_scenario(ref)

    def test_sim_config_shifts_to_month_origin(self):
        scn = Scenario(name="x", system="testsys",
                       months=("2024-02",), injections=ScenarioInjections(
                           faults=(NodeFault(t=3600, nodes=2,
                                             duration_s=600),)))
        cfg = scenario_sim_config(scn)
        assert cfg.scenario.faults[0].t == \
            month_bounds("2024-02")[0] + 3600


# -- scheduler-core mechanics -------------------------------------------------------


class TestInjectionMechanics:
    def test_empty_injections_are_bit_identical_to_none(self):
        reqs = _stream(days=2, rate=0.4)
        a = Simulator(SYS, SimConfig(seed=1)).run(reqs)
        b = Simulator(SYS, SimConfig(
            seed=1, scenario=ScenarioInjections())).run(reqs)
        assert [(j.start, j.end, j.state) for j in a.jobs] == \
               [(j.start, j.end, j.state) for j in b.jobs]
        assert b.n_injections == 0

    def test_full_machine_fault_evicts_and_requeues(self):
        reqs = _stream(days=2, rate=1.0)
        inj = ScenarioInjections(faults=(
            NodeFault(t=START + 12 * 3600, nodes=16,
                      duration_s=4 * 3600),))
        result = Simulator(SYS, SimConfig(
            seed=1, requeue_node_fail=True, scenario=inj)).run(reqs)
        assert result.n_injections >= 1
        assert result.n_fault_victims > 0
        # requeue policy: victims rerun, nobody ends NODE_FAIL
        assert all(j.state != "NODE_FAIL" for j in result.jobs)
        assert any(j.restarts > 0 for j in result.jobs)
        for j in result.jobs:
            check_job_invariants(j)

    def test_kill_policy_leaves_terminal_node_fail(self):
        reqs = _stream(days=2, rate=1.0)
        inj = ScenarioInjections(faults=(
            NodeFault(t=START + 12 * 3600, nodes=16,
                      duration_s=4 * 3600, policy="kill"),))
        result = Simulator(SYS, SimConfig(
            seed=1, requeue_node_fail=True, scenario=inj)).run(reqs)
        assert result.n_fault_victims > 0
        assert any(j.state == "NODE_FAIL" for j in result.jobs)

    def test_power_cap_bounds_concurrent_allocation(self):
        reqs = _stream(days=2, rate=1.0)
        cap_s, cap_e = START + 8 * 3600, START + 32 * 3600
        inj = ScenarioInjections(power_caps=(
            PowerCap(start=cap_s, end=cap_e, frac=0.25),))
        result = Simulator(SYS, SimConfig(seed=1, scenario=inj)).run(reqs)
        assert result.n_injections >= 1
        # no job may be *placed* while allocation sits at/above the cap
        limit = int(round(0.25 * SYS.total_nodes))
        events = sorted(
            [(j.start, j.nnodes, True) for j in result.jobs
             if 0 <= j.start and j.elapsed > 0] +
            [(j.end, j.nnodes, False) for j in result.jobs
             if 0 <= j.start and j.elapsed > 0],
            key=lambda e: (e[0], e[2]))
        level = 0
        for t, n, is_start in events:
            if is_start:
                if cap_s <= t < cap_e:
                    assert level < limit or n == 0
                level += n
            else:
                level -= n

    def test_elastic_window_shrinks_running_jobs(self):
        reqs = _stream(days=2, rate=1.0)
        inj = ScenarioInjections(elastic=(
            ElasticWindow(start=START + 12 * 3600,
                          end=START + 20 * 3600, frac=0.9),))
        result = Simulator(SYS, SimConfig(seed=1, scenario=inj)).run(reqs)
        assert result.n_shrunk_nodes > 0
        for j in result.jobs:
            check_job_invariants(j)

    def test_capacity_always_recovers(self):
        """Every injection is bounded: after the stream drains, no job
        is stranded pending."""
        reqs = _stream(days=2, rate=0.8)
        result = Simulator(SYS, CONFIG).run(reqs)
        assert len(result.jobs) == len(reqs)
        assert all(j.state != "PENDING" for j in result.jobs)


# -- golden determinism across execution modes --------------------------------------


def _digest_dir(dirpath):
    out = {}
    for name in sorted(os.listdir(dirpath)):
        with open(os.path.join(dirpath, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def scenario_builds(tmp_path_factory):
    """The injected two-month timeline built by the workflow's Obtain →
    Curate text stages (its entry holds the WorkflowResult), unsharded,
    sharded on a process pool, and sharded through the durable
    fabric."""
    tmp = tmp_path_factory.mktemp("scenario-sharded")

    def build(name, shards, procs, fabric=False):
        out = os.path.join(tmp, name)
        fabric_db = os.path.join(tmp, f"{name}.sqlite3") if fabric else None
        report = run_sharded("testsys", MONTHS, out, shards=shards,
                             procs=procs, seed=7, rate_scale=1.0,
                             config=CONFIG, fabric_db=fabric_db)
        return report, _digest_dir(os.path.join(out, "data"))

    def text_build():
        out = os.path.join(tmp, "text")
        result = SchedulingAnalysisWorkflow(WorkflowConfig(
            system="testsys", months=tuple(MONTHS), workdir=out, seed=7,
            rate_scale=1.0, enable_ai=False, sim_config=CONFIG)).run()
        return result, _digest_dir(os.path.join(out, "data"))

    return {"text": text_build(),
            "s1": build("s1", 1, 1),
            "pool": build("pool", 2, 2),
            "fabric": build("fabric", 2, 2, fabric=True)}


class TestScenarioGolden:
    def test_injected_timeline_bit_identical_across_modes(
            self, scenario_builds):
        """The acceptance gate: with a fault, a cut-spanning power cap,
        and an elastic window all injected, every curated artifact is
        byte-for-byte equal across the text stages and the three
        sharded execution modes."""
        _, d1 = scenario_builds["s1"]
        assert d1
        for label in ("text", "pool", "fabric"):
            _, d = scenario_builds[label]
            assert d == d1, label

    def test_injections_actually_fired(self, scenario_builds):
        """Vacuous identity would prove nothing — the golden run must
        contain applied injections and real fault victims."""
        r1, _ = scenario_builds["s1"]
        assert r1.counters["n_injections"] > 0
        assert r1.counters["n_victims"] > 0

    def test_scenario_counters_agree_across_modes(self, scenario_builds):
        r1, _ = scenario_builds["s1"]
        for label in ("pool", "fabric"):
            r, _ = scenario_builds[label]
            assert r.counters == r1.counters, label
        text, _ = scenario_builds["text"]
        metrics = text.run_context.metrics
        for name, key in (("injections", "n_injections"),
                          ("victims", "n_victims"),
                          ("shrunk", "n_shrunk")):
            assert metrics.counter(f"sched.scenario.{name}").value \
                == r1.counters[key], name

    def test_cap_spans_the_cut_and_jobs_carry(self, scenario_builds):
        """The power cap straddles the shard boundary by construction,
        so the sharded runs must hand capped-pool state across."""
        cap = INJECTIONS.power_caps[0]
        assert cap.start < CUT <= cap.end
        r, _ = scenario_builds["pool"]
        assert r.carried_total > 0


# -- policylab sweeps ---------------------------------------------------------------


def _small_scenario(**kwargs):
    base = dict(name="small", system="testsys", months=("2024-01",),
                seed=3, rate_scale=0.3,
                injections=ScenarioInjections(faults=(
                    NodeFault(t=6 * 3600, nodes=16,
                              duration_s=4 * 3600),)))
    base.update(kwargs)
    return Scenario(**base)


class TestSweep:
    def test_injections_change_the_outcome_table(self):
        scn = _small_scenario(rate_scale=0.5)
        injected = sweep_scenario(scn, days=2,
                                  variant_names=["baseline"])[0]
        control = sweep_scenario(
            _small_scenario(rate_scale=0.5,
                            injections=ScenarioInjections()),
            days=2, variant_names=["baseline"])[0]
        assert injected.n_jobs == control.n_jobs
        assert (injected.mean_wait_s, injected.makespan_s) != \
               (control.mean_wait_s, control.makespan_s)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown variants"):
            sweep_scenario(_small_scenario(), days=1,
                           variant_names=["yolo"])

    def test_bad_days_rejected(self):
        with pytest.raises(ConfigError):
            sweep_scenario(_small_scenario(), days=0)


# -- full runs: workflow, replay, federation ----------------------------------------


class TestRunScenario:
    @pytest.fixture(scope="class")
    def replay_run(self, tmp_path_factory):
        """Real-trace replay end to end: simulate -> SWF -> calibrate
        -> run the full workflow under an injected scenario with the
        trace-fitted profile."""
        tmp = tmp_path_factory.mktemp("replay")
        trace = os.path.join(tmp, "trace.swf")
        jobs = simulate_month("testsys", "2024-01", seed=11,
                              rate_scale=0.3).jobs
        write_swf(jobs, trace, cpus_per_node=SYS.cpus_per_node)
        spec, report = calibrate_trace(trace, "testsys", max_rows=5000)
        scn = _small_scenario(rate_scale=0.2)
        result = run_scenario(scn, os.path.join(tmp, "out"),
                              enable_ai=False, profile_spec=spec)
        return spec, report, result

    def test_calibration_produces_a_versioned_spec(self, replay_run):
        spec, report, _ = replay_run
        assert spec["version"] >= 1
        assert report.rows()

    def test_replay_produces_the_dashboard(self, replay_run):
        _, _, result = replay_run
        assert result.kind == "single"
        assert result.n_jobs > 0
        assert os.path.exists(result.report)      # dashboard html

    def test_replay_applied_the_injections(self, replay_run):
        _, _, result = replay_run
        assert result.counters["injections"] > 0


class TestFederatedRun:
    @pytest.fixture(scope="class")
    def fed_run(self, tmp_path_factory):
        scn = Scenario(
            name="fed-small", kind="federated", system="testsys",
            months=("2024-01",), seed=3, rate_scale=0.3,
            injections=ScenarioInjections(faults=(
                NodeFault(t=6 * 3600, nodes=16, duration_s=4 * 3600),)),
            federation=FederationSpec(systems=("testsys", "andes"),
                                      split_nodes=2))
        tmp = tmp_path_factory.mktemp("fed")
        return run_federated(scn, str(tmp))

    def test_delta_rows_cover_both_systems(self, fed_run):
        assert len(fed_run.delta_rows) == 7 * 2
        assert {name for _, name, _ in fed_run.delta_rows} == \
            {"testsys", "andes"}

    def test_report_json_written(self, fed_run):
        with open(fed_run.report, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["systems"] == ["testsys", "andes"]
        assert sum(report["routed_jobs"].values()) == fed_run.n_jobs
        assert len(report["relative_rows"]) == 7 * 2

    def test_injections_hit_the_primary(self, fed_run):
        assert fed_run.counters["injections"] > 0

    def test_non_federated_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not federated"):
            run_federated(_small_scenario(), str(tmp_path))


def _req(i, nnodes=1, dep=None, member=None, partition="batch"):
    return JobRequest(
        user=f"u{i}", account="a0", partition=partition, qos="normal",
        job_class="simulation", submit=i * 60, nnodes=nnodes,
        ncpus=nnodes * SYS.cpus_per_node, timelimit_s=3600,
        true_runtime_s=600, outcome="COMPLETED", dependency_idx=dep,
        array_member_of=member)


class TestRouting:
    FED = FederationSpec(systems=("frontier", "andes"), split_nodes=4)

    def test_size_split(self):
        routed = _route([_req(0, nnodes=2), _req(1, nnodes=100)],
                        self.FED)
        assert len(routed["andes"]) == 1 and len(routed["frontier"]) == 1
        assert routed["andes"][0].nnodes == 2

    def test_families_stay_together_with_remapped_indices(self):
        stream = [_req(0, nnodes=100), _req(1, nnodes=2, dep=0),
                  _req(2, nnodes=2), _req(3, nnodes=2, dep=2)]
        routed = _route(stream, self.FED)
        # the child of the big job follows it to the primary
        assert len(routed["frontier"]) == 2
        assert routed["frontier"][1].dependency_idx == 0
        # the small family lands on the secondary, indices remapped
        assert len(routed["andes"]) == 2
        assert routed["andes"][1].dependency_idx == 0

    def test_oversized_jobs_forced_to_primary(self):
        fed = FederationSpec(systems=("frontier", "testsys"),
                             split_nodes=10_000)
        routed = _route([_req(0, nnodes=2), _req(1, nnodes=64)], fed)
        # testsys has 16 nodes: the 64-node job cannot route there
        assert [r.nnodes for r in routed["frontier"]] == [64]

    def test_missing_partition_remapped_to_widest(self):
        routed = _route([_req(0, nnodes=2, partition="debug")], self.FED)
        # andes has no 'debug'; the job lands on its widest partition
        assert routed["andes"][0].partition == "batch"

    def test_round_robin_alternates(self):
        fed = FederationSpec(systems=("frontier", "andes"),
                             routing="round-robin")
        routed = _route([_req(i) for i in range(4)], fed)
        assert len(routed["frontier"]) == len(routed["andes"]) == 2


# -- fabric runner + CLI ------------------------------------------------------------


class TestPayloadRunner:
    def test_registered_as_fabric_runner(self):
        assert "scenario" in BUILTIN_RUNNERS

    def test_sweep_payload(self):
        scn = _small_scenario()
        out = run_scenario_payload({
            "scenario": scenario_to_spec(scn), "mode": "sweep",
            "days": 1, "variants": ["baseline"]})
        assert out["scenario"] == "small"
        assert out["mode"] == "sweep"
        assert len(out["outcomes"]) == 1
        assert out["outcomes"][0]["n_jobs"] > 0
        json.dumps(out)                     # payload must be JSON-safe

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario_payload({})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            run_scenario_payload({
                "scenario": scenario_to_spec(_small_scenario()),
                "mode": "interpretive-dance"})


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "node-storm" in out and "federated" in out

    def test_show(self, capsys):
        assert cli_main(["show", "power-brownout"]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["name"] == "power-brownout"

    def test_sweep_from_spec_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_to_spec(
            _small_scenario(rate_scale=0.2))))
        json_out = tmp_path / "outcomes.json"
        assert cli_main(["sweep", str(path), "--days", "1",
                         "--variants", "baseline",
                         "--json", str(json_out)]) == 0
        assert "baseline" in capsys.readouterr().out
        assert json.loads(json_out.read_text())[0]["n_jobs"] > 0

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert cli_main(["show", "no-such-scenario"]) == 1
        assert "error:" in capsys.readouterr().err
