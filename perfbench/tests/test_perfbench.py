"""Tests of the benchmark itself: generators, oracles and tiny smoke runs.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import random
import sys
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import dyckflip  # noqa: E402
import dyckflip.cli  # noqa: E402
from perfbench import gen, run, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

SEEDS = range(5)


def all_paths(length):
    return ["".join(p) for p in product("UD", repeat=length)]


class TestGenerators:
    @pytest.mark.parametrize("length", [2, 8, 40, 1000])
    def test_random_balanced(self, length):
        for seed in SEEDS:
            for up in (True, False):
                p = gen.random_balanced(random.Random(seed), length, up)
                assert len(p) == length
                assert gen.classify(p) == "Balanced"
                assert p[0] == ("U" if up else "D")

    @pytest.mark.parametrize("length", [2, 8, 40, 1000])
    def test_random_unbalanced(self, length):
        for seed in SEEDS:
            for up, cls in ((True, "UpUnbalanced"), (False, "DownUnbalanced")):
                p = gen.random_unbalanced(random.Random(seed), length, up)
                assert len(p) == length
                assert gen.classify(p) == cls

    def test_same_seed_same_inputs(self):
        a = [gen.random_unbalanced(random.Random(7), 200, True) for _ in range(2)]
        assert a[0] == a[1]
        assert gen.random_balanced(random.Random(7), 200, True) != gen.random_balanced(
            random.Random(8), 200, True
        )

    @pytest.mark.parametrize("k", [1, 2, 5, 50])
    def test_many_peak_family(self, k):
        p, image = gen.many_peak(k), gen.many_peak_image(k)
        assert len(p) == len(image) == 4 * k
        assert gen.classify(p) == "Balanced" and p[0] == "U"
        assert gen.classify(image) == "UpUnbalanced"
        assert len(gen.peaks(p)) == k
        assert dyckflip.format_path(dyckflip.phi(dyckflip.parse_path(p))[0]) == image


class TestCounts:
    @pytest.mark.parametrize("length", range(0, 11))
    def test_enumerate_count_matches_brute_force(self, length):
        paths = all_paths(length)
        for cls in ("Balanced", "UpUnbalanced", "DownUnbalanced"):
            assert gen.enumerate_count(length, cls) == sum(gen.classify(p) == cls for p in paths)
        assert gen.enumerate_count(length, None) == len(paths)

    def test_stated_count(self):
        assert gen.enumerate_count(18, "UpUnbalanced") == 24310

    @pytest.mark.parametrize("length", [2, 4, 6, 8, 10, 12])
    def test_peaks_match_library_decomposition(self, length):
        for p in all_paths(length):
            if p[0] == "U" and gen.classify(p) == "Balanced":
                d = dyckflip.decompose(dyckflip.parse_path(p))
                want = list(zip(d.peak_indices, d.peak_heights))[::-1]
                assert gen.peaks(p) == want


def cli_lines(capsys, *argv):
    assert dyckflip.cli.main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


def flip_at(text, j):
    return text[:j] + gen.reflect(text[j]) + text[j + 1 :]


class TestOracles:
    def test_map(self, capsys):
        for text, k in (("UUDUDD", 0), ("DDUDUU", 0), (gen.many_peak(3), 3)):
            lines = cli_lines(capsys, "map", text, "--trace")
            assert gen.check_map(text, lines, k) == []
            for j in range(len(text)):
                assert gen.check_map(text, [flip_at(lines[0], j)] + lines[1:], k)
            assert gen.check_map(text, lines[:2] + ["class_out=Other"] + lines[3:], k)
            assert gen.check_map(text, lines[:-1] + ["lines=0"], k)

    def test_invert(self, capsys):
        for text, k in (("UUDUUU", 0), ("DDUDDD", 0), (gen.many_peak_image(3), 3)):
            lines = cli_lines(capsys, "invert", text, "--trace")
            assert gen.check_invert(text, lines, k) == []
            for j in range(len(text)):
                assert gen.check_invert(text, [flip_at(lines[0], j)] + lines[1:], k)

    def test_decompose(self, capsys):
        text = "UUDUUDDD"
        lines = cli_lines(capsys, "decompose", text)
        assert gen.check_decompose(text, lines) == []
        assert gen.check_decompose(text, ["uprun=1"] + lines[1:])
        assert gen.check_decompose(text, lines[:-1] + ["peaks=0:0"])
        assert gen.check_decompose(text, lines[:1] + ["segment=DownUnbalanced:D"] + lines[2:])

    def test_render(self, capsys):
        for text in ("UDUUDD", "DUDDUU"):
            svg = "\n".join(cli_lines(capsys, "render", text, "--trace", "forward", "--svg", "-")) + "\n"
            assert gen.check_render(text, svg) == []
            assert gen.check_render(text, svg.replace("<circle ", "<x ", 1))
            assert gen.check_render(flip_at(text, 2), svg)

    @pytest.mark.parametrize("mode, n", [("arithmetic", 5), ("structural", 4)])
    def test_identity(self, capsys, mode, n):
        out = "\n".join(cli_lines(capsys, "verify", "identity", "--n", str(n), "--mode", mode)) + "\n"
        structural = mode == "structural"
        assert gen.check_kv(mode, n, structural, out) == []
        assert gen.check_kv(mode, n, structural, out, returncode=1)
        assert gen.check_kv(mode, n, structural, out.replace("ok=true", "ok=false"))
        assert gen.check_kv(mode, n + 1, structural, out)
        assert gen.check_kv(mode, n, not structural, out)
        if structural:
            tallies = gen.kv_expected(n, True)["structural_tallies"]
            wrong = tallies.replace(tallies.split(",")[1], "1", 1)
            assert gen.check_kv(mode, n, True, out.replace(tallies, wrong))

    def test_sweep(self):
        report = dyckflip.verify_bijection(3)
        assert gen.check_kv("sweep", 3, False, report.to_kv()) == []
        for wrong in ({"bijection_ok": False}, {"balanced_count": 19}, {"roundtrip_failures": (5,)}):
            assert gen.check_kv("sweep", 3, False, dataclasses.replace(report, **wrong).to_kv())

    def test_enumerate(self):
        up = [dyckflip.format_path(p) for p in dyckflip.enumerate_class(6, dyckflip.PathClass.UP_UNBALANCED)]
        assert gen.check_enumerate(6, "UpUnbalanced", up) == []
        assert gen.check_enumerate(6, "UpUnbalanced", up[1:])
        assert gen.check_enumerate(6, "UpUnbalanced", [up[1], up[0]] + up[2:])
        assert gen.check_enumerate(6, "UpUnbalanced", up[:-1] + ["UDUDUD"])
        assert gen.check_enumerate(6, None, all_paths(6)[::-1])


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestSmoke:
    @pytest.fixture(scope="class")
    def lib(self):
        return run.load_library(str(ROOT))

    @pytest.mark.parametrize("workload", run.WORKLOADS)
    def test_untraced(self, lib, workload):
        res, lines = run.run_untraced(*lib, workload, 3, 0, workloads.TINY)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        names = {m["name"] for m in benchmark_spec()["end_to_end"]}
        assert set(res["metrics"]) == names
        assert all(m["value"] > 0 for m in res["metrics"].values())
        assert any("error_rate = 0 " in line for line in lines)

    def test_traced(self, lib, tmp_path):
        res, _ = run.run_traced(*lib, "longpath", 3, str(tmp_path), workloads.TINY)
        assert res["correct"]
        names = {m["name"] for m in benchmark_spec()["per_layer"]}
        assert set(res["metrics"]) == names
        written = json.loads((tmp_path / "perfbench" / "out" / "spans-longpath.json").read_text())
        assert written["spans"] and set(written["metrics"]) == names

    def test_failures_are_counted(self, lib):
        class Wrong:
            def __getattr__(self, name):
                return getattr(dyckflip, name)

            @staticmethod
            def format_path(p, alphabet="ud"):
                return dyckflip.format_path(p, alphabet)[::-1]

        c = workloads.Client(Wrong(), Tracer(False), workloads.TINY, 1, lib[1])
        workloads.run_loop(c, "longpath", 0)
        assert c.failed > 0 and c.attempted >= c.failed

    def test_repeats_are_checked(self, lib):
        c = workloads.Client(dyckflip, Tracer(False), workloads.TINY, 1, lib[1])
        plan = workloads.enumerate_plan(c, random.Random(1))
        c.send(plan[1])
        c.send(dataclasses.replace(plan[1], work=lambda: plan[1].work()[:-1]))
        assert (c.attempted, c.failed) == (2, 1)

    def test_not_a_checkout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
        assert code != 0
        assert capsys.readouterr().out == ""
