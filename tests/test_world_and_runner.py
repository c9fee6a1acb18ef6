"""Tests for the World helpers, the runner, and topology stats."""

import io
import itertools
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from repro import cli
from repro.dnssim.resolver import DnsMode
from repro.experiments import fig6, runner
from repro.experiments import world as world_module
from repro.experiments.base import TextResult, experiment_name
from repro.experiments.claims import experiments_needed
from repro.experiments.config import SMALL
from repro.obs import recorder as obs_recorder
from repro.topology.stats import summarize

ALL_NAMES = [experiment_name(m) for m, _ in runner.ALL_EXPERIMENTS]


class TestWorldHelpers:
    def test_group_received_addr_is_majority(self, small_world):
        answers = small_world.resolve_all(small_world.im6_service, DnsMode.LDNS)
        received = small_world.group_received_addr(
            small_world.im6_service, DnsMode.LDNS
        )
        groups_by_key = {g.key: g for g in small_world.groups}
        for key, addr in list(received.items())[:50]:
            group = groups_by_key[key]
            votes = [answers[p.probe_id] for p in group.probes]
            assert votes.count(addr) >= max(
                votes.count(v) for v in set(votes)
            ) - 0  # the winner is a maximal-count answer

    def test_group_median_rtt_covers_most_groups(self, small_world):
        addr = small_world.imperva.ns.address
        medians = small_world.group_median_rtt(addr)
        assert len(medians) >= 0.95 * len(small_world.groups)

    def test_sitemap_cache_keyed_by_published_list(self, small_world):
        addr = small_world.imperva.ns.address
        pub = small_world.imperva.ns.published_cities
        a = small_world.map_sites_for_address(addr, pub)
        b = small_world.map_sites_for_address(addr, pub)
        assert a is b
        # A different published list is a different pipeline run.
        c = small_world.map_sites_for_address(addr, pub[:10])
        assert c is not a

    def test_observations_cover_all_usable_probes(self, small_world):
        obs = small_world.observations_global(small_world.imperva.ns)
        assert set(obs) == {p.probe_id for p in small_world.usable_probes}
        valid = sum(1 for o in obs.values() if o.valid)
        assert valid > 0.8 * len(obs)

    def test_probe_by_id_index(self, small_world):
        for probe in small_world.usable_probes[:20]:
            assert small_world.probe_by_id[probe.probe_id] is probe

    def test_services_use_distinct_cdn_databases(self, small_world):
        assert small_world.eg3_service.geodb is small_world.edgio_db
        assert small_world.im6_service.geodb is small_world.imperva_db
        assert small_world.edgio_db.name != small_world.imperva_db.name


class TestRunner:
    def test_run_all_renders_each_experiment(self, small_world, monkeypatch):
        from repro.experiments import fig1, table1

        monkeypatch.setattr(
            runner, "ALL_EXPERIMENTS",
            ((fig1, "Fig. 1 micro-case"), (table1, "Table 1 sites")),
        )
        stream = io.StringIO()
        results, recording = runner.run_all(small_world, stream=stream)
        out = stream.getvalue()
        assert len(results) == 2
        assert "fig1" in out and "Table 1" in out
        assert "[Fig. 1 micro-case:" in out

    def test_run_all_returns_span_tree(self, small_world, monkeypatch):
        from repro import obs
        from repro.experiments import fig1, table1

        monkeypatch.setattr(
            runner, "ALL_EXPERIMENTS",
            ((fig1, "Fig. 1 micro-case"), (table1, "Table 1 sites")),
        )
        _, recording = runner.run_all(small_world, stream=io.StringIO())
        # The private recorder is uninstalled again on the way out.
        assert obs.active() is None
        run_all_span = recording.root.find("experiments.run_all")
        assert run_all_span is not None
        names = [c.name for c in run_all_span.children]
        assert names == ["experiment.fig1", "experiment.table1"]
        assert all(c.wall_ms > 0.0 for c in run_all_span.children)

    def test_runner_main_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            runner.main(["--help"])
        assert exc.value.code == 0
        assert "--trace" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            runner.main(["--bogus-flag"])
        assert exc.value.code == 2

    def test_experiment_list_is_complete(self):
        names = {m.__name__.rsplit(".", 1)[-1] for m, _ in runner.ALL_EXPERIMENTS}
        # Every experiment module in the package must be wired in.
        expected = {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "table1", "table2", "table3", "table4", "table5", "table6",
            "sec54", "sec52_tails", "igreedy_compare", "baselines",
            "resilience", "longitudinal", "load_balance", "methodology",
            "probe_sweep",
        }
        assert names == expected

    def test_descriptions_unique(self):
        descriptions = [d for _, d in runner.ALL_EXPERIMENTS]
        assert len(set(descriptions)) == len(descriptions)


@pytest.fixture
def shared_small(small_world, monkeypatch):
    """Commands that ask for the SMALL world get the shared test world."""
    monkeypatch.setitem(world_module._WORLDS, SMALL.name, small_world)
    return small_world


class TestEachExperimentRunsOnce:
    """Every command runs each selected experiment exactly once."""

    @pytest.fixture
    def ran(self, shared_small, monkeypatch):
        """Stub every experiment's ``run``; returns the live call count."""
        calls: Counter[str] = Counter()
        for module, _ in runner.ALL_EXPERIMENTS:
            def stub(world, _name=experiment_name(module)):
                calls[_name] += 1
                return TextResult(_name, "stub")
            monkeypatch.setattr(module, "run", stub)
        return calls

    @pytest.mark.parametrize("argv, expected", [
        (["run", "--small"], ALL_NAMES),
        (["run", "--small", "--trace", "{tmp}/trace"], ALL_NAMES),
        (["run", "table1", "fig6", "--small", "--trace", "{tmp}/trace"],
         ["table1", "fig6"]),
        (["report", "--small", "--out", "{tmp}/r.md"], ALL_NAMES),
        (["verify", "--small"], sorted(experiments_needed())),
    ], ids=["run", "run-traced", "run-partial-traced", "report", "verify"])
    def test_cli_command(self, ran, tmp_path, capsys, argv, expected):
        cli.main([arg.format(tmp=tmp_path) for arg in argv])
        assert ran == Counter(expected)

    def test_legacy_runner(self, ran, capsys):
        assert runner.main(["--small"]) == 0
        assert ran == Counter(ALL_NAMES)


def test_untraced_run_times_each_experiment(shared_small, capsys,
                                           monkeypatch):
    # Spans read a clock that advances one second per read, so a measured
    # experiment prints at least 1.00s however fast it runs on a warm
    # world; a 0.00s line can only be a timing that was never measured.
    ticks = itertools.count()
    monkeypatch.setattr(obs_recorder, "time", SimpleNamespace(
        perf_counter=lambda: float(next(ticks)),
        process_time=time.process_time,
    ))
    assert cli.main(["run", "table5", "methodology", "--small"]) == 0
    timings = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("[") and line.endswith("s]")]
    assert len(timings) == 2
    assert not any(line.endswith(": 0.00s]") for line in timings)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: fig6 allocates fresh /24s from the world's shared "
    "service pool and ping jitter is hashed on the address, so a second "
    "run on the same world renders differently"))
def test_fig6_renders_identically_when_run_twice():
    world = world_module.World(SMALL)
    assert fig6.run(world).render() == fig6.run(world).render()


class TestTopologyStats:
    def test_summary_text_mentions_all_sections(self, tiny_topology):
        text = summarize(tiny_topology).as_text()
        assert "nodes:" in text
        assert "links:" in text
        assert "stubs by area:" in text
        assert "IXPs:" in text

    def test_interconnect_count_at_least_links(self, tiny_topology):
        summary = summarize(tiny_topology)
        assert summary.num_interconnects >= tiny_topology.num_links

    def test_degrees_positive(self, tiny_topology):
        summary = summarize(tiny_topology)
        assert summary.mean_stub_degree >= 1.0
        assert summary.max_degree >= 3
