import operator
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from agentroute.agents import MockProfile
from agentroute.cli import (BackendSettings, EmbedderSettings, PathSettings,
                            SummarizerSettings, build_runtime, cmd_gradcheck,
                            cmd_infer, cmd_simulate, cmd_train, cmd_ttt,
                            load_config, main, verify_topology_trace)
from agentroute.core import AgentSpec, ConfigError, read_trace, RouterConfig
from agentroute.learning import TrainingSettings
from agentroute.embed import HashEmbedder
from agentroute.router import RouterParams, init_params, save_params
from agentroute.synthetic import make_queries


def write_config(path, *, pool_size=4, max_route=2, embed_dim=16, max_steps=3,
                 train_steps=2, seed=7, lr="1e-3", batch_size=2, epochs=2,
                 loss="ranking", final_at_step=0, params_in="", out_dir=None,
                 skills=None, extra_router="", params_out="params.bin"):
    out_dir = out_dir or path.parent
    skills = skills or ["alpha:0.2:0.0, default:2.0:0.0",
                        "alpha:0.3:0.0, default:2.0:0.0"]
    lines = [
        "# test run configuration",
        "[router]",
        f"pool_size = {pool_size}",
        f"max_route = {max_route}",
        "temperature = 0.1",
        f"embed_dim = {embed_dim}",
        f"max_steps = {max_steps}",
        f"train_steps = {train_steps}",
        f"seed = {seed}",
        extra_router,
        "[embedder]",
        "kind = hash",
        "",
        "[agents]",
        "backend = mock",
        "max_workers = 1",
        "",
        "[summarizer]",
        "backend = mock",
        f"final_at_step = {final_at_step}",
        "",
        "[training]",
        f"lr = {lr}",
        f"batch_size = {batch_size}",
        f"epochs = {epochs}",
        f"loss = {loss}",
        "",
        "[paths]",
        f"params_in = {params_in}",
        f"params_out = {out_dir / params_out}",
        f"trace_out = {out_dir / 'trace.jsonl'}",
        f"metrics_out = {out_dir / 'metrics.csv'}",
        "",
    ]
    for agent_id in range(pool_size):
        skill = skills[agent_id % len(skills)]
        lines += [
            f"[agent {agent_id}]",
            f"profile = You are mock agent {agent_id} for tests.",
            "tools = calculator",
            f"skills = {skill}",
            "",
        ]
    path.write_text("\n".join(lines))
    return path


def write_queries(path, queries):
    path.write_text("\n".join(queries) + "\n")
    return path


# --- config loading ---

def test_shipped_example_config_loads_cleanly():
    path = Path(__file__).resolve().parent.parent / "configs" / "example.conf"
    run = load_config(path)
    assert run.router.pool_size == 8
    assert run.router.max_route == 4
    assert run.router.temperature == 0.1
    assert run.training.lr == 1e-3
    assert run.training.batch_size == 8
    assert run.training.epochs == 3
    assert build_runtime(run).pool.size == 8


def test_load_config_example_values(tmp_path):
    path = write_config(tmp_path / "run.conf", pool_size=8, max_route=4,
                        batch_size=8, epochs=3)
    run = load_config(path)
    assert run.router == RouterConfig(pool_size=8, max_route=4, temperature=0.1,
                                      embed_dim=16, max_steps=3, train_steps=2,
                                      seed=7)
    assert run.training.lr == 1e-3
    assert run.training.batch_size == 8
    assert run.training.epochs == 3
    assert len(run.specs) == 8
    assert run.profiles[0].skill_map["alpha"] == (0.2, 0.0)
    runtime = build_runtime(run)
    assert runtime.pool.size == 8
    assert isinstance(runtime.embed, HashEmbedder)


def test_build_runtime_remote_and_chat_wiring(tmp_path, monkeypatch):
    path = tmp_path / "remote.conf"
    text = write_config(path).read_text()
    text = text.replace("kind = hash", "kind = remote\nendpoint = http://emb.local/v1")
    text = text.replace("backend = mock\nmax_workers = 1",
                        "backend = chat\nendpoint = http://chat.local/v1\nmax_workers = 4")
    path.write_text(text)
    monkeypatch.setenv("DMOA_API_KEY", "sk-from-env")
    run = load_config(path)
    runtime = build_runtime(run)
    assert type(runtime.embed).__name__ == "RemoteEmbedder"
    assert runtime.embed.api_key == "sk-from-env"
    assert type(runtime.pool).__name__ == "ChatPoolBackend"
    assert runtime.pool.endpoint == "http://chat.local/v1"
    assert runtime.max_workers == 4


def test_load_config_remote_kinds_require_endpoints(tmp_path):
    path = tmp_path / "remote.conf"
    text = write_config(path).read_text().replace("kind = hash", "kind = remote")
    path.write_text(text)
    with pytest.raises(ConfigError, match="remote embedder requires an endpoint"):
        load_config(path)


def test_load_config_unknown_key_names_it(tmp_path):
    path = write_config(tmp_path / "run.conf", extra_router="frobnicate = 3")
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        load_config(path)


def test_load_config_unknown_section(tmp_path):
    path = tmp_path / "run.conf"
    write_config(path)
    path.write_text(path.read_text() + "\n[mystery]\nvalue = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[mystery\]"):
        load_config(path)


def test_load_config_pool_size_mismatch(tmp_path):
    path = tmp_path / "run.conf"
    write_config(path, pool_size=4)
    text = path.read_text().replace("pool_size = 4", "pool_size = 5")
    path.write_text(text)
    with pytest.raises(ConfigError, match="pool-size mismatch"):
        load_config(path)


def test_load_config_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("[router]\npool_size = 4\nthis line is wrong\n")
    with pytest.raises(ConfigError, match=r"bad\.conf:3"):
        load_config(path)


def test_load_config_duplicate_key_reports_line(tmp_path):
    path = tmp_path / "dup.conf"
    path.write_text("[router]\npool_size = 4\npool_size = 5\n")
    with pytest.raises(ConfigError, match="duplicate key 'pool_size'"):
        load_config(path)


def test_load_config_missing_required_key(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("[router]\nmax_route = 2\n")
    with pytest.raises(ConfigError, match="missing required key 'pool_size'"):
        load_config(path)


def test_load_config_validates_router_invariants(tmp_path):
    path = write_config(tmp_path / "run.conf")
    text = path.read_text().replace("temperature = 0.1", "temperature = 0")
    path.write_text(text)
    with pytest.raises(ConfigError, match="temperature must be positive"):
        load_config(path)


def test_load_config_takes_every_default_from_its_dataclass(tmp_path):
    path = tmp_path / "minimal.conf"
    path.write_text("[router]\npool_size = 1\nmax_route = 1\n"
                    "[agent 0]\nprofile = p\n")
    run = load_config(path)
    assert run.router == RouterConfig(pool_size=1, max_route=1)
    assert run.training == TrainingSettings()
    assert run.embedder == EmbedderSettings()
    assert run.backend == BackendSettings()
    assert run.summarizer == SummarizerSettings()
    assert run.paths == PathSettings()
    assert run.specs == [AgentSpec(agent_id=0, model_ref="mock", profile_text="p")]
    assert run.profiles == [MockProfile(agent_id=0,
                                        skill_map={"default": (1.0, 0.0)})]


# --- train / infer round trip ---

def test_train_then_infer_round_trip(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf")
    queries = write_queries(tmp_path / "q.txt", make_queries(["alpha"], 4, seed=1))
    assert cmd_train(str(config), str(queries)) == 0
    assert (tmp_path / "params.bin").exists()
    metrics = (tmp_path / "metrics.csv").read_text()
    assert metrics.startswith("epoch,batch,loss\n")
    assert "# summary" in metrics

    infer_config = write_config(tmp_path / "infer.conf",
                                params_in=str(tmp_path / "params.bin"))
    assert cmd_infer(str(infer_config), query="[tag:alpha] held out") == 0
    out = capsys.readouterr().out
    assert "synthesis of" in out
    trace = read_trace(tmp_path / "trace.jsonl")
    assert len(trace) == 1
    assert trace[0].final_answer


def test_train_metrics_record_every_epochs_routing_agreement(tmp_path):
    config = write_config(tmp_path / "run.conf", epochs=3)
    queries = write_queries(tmp_path / "q.txt", make_queries(["alpha"], 4, seed=3))
    assert cmd_train(str(config), str(queries)) == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    epochs = [line for line in lines if line.startswith("# epoch=")]
    assert [line.split()[1] for line in epochs] == ["epoch=1", "epoch=2", "epoch=3"]
    values = [line.split("routing_agreement=")[1] for line in epochs]
    assert all(0.0 <= float(value) <= 1.0 for value in values)
    # the summary line, last, still carries the final epoch's agreement
    assert lines[-1].startswith("# summary epochs=3 ")
    assert lines[-1].endswith(f" routing_agreement={values[-1]}")


def test_train_rerun_is_byte_identical(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    queries = write_queries(tmp_path / "q.txt", make_queries(["alpha"], 4, seed=2))
    config_a = write_config(dir_a / "run.conf", out_dir=dir_a)
    config_b = write_config(dir_b / "run.conf", out_dir=dir_b)
    assert cmd_train(str(config_a), str(queries)) == 0
    assert cmd_train(str(config_b), str(queries)) == 0
    assert (dir_a / "params.bin").read_bytes() == (dir_b / "params.bin").read_bytes()
    assert (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    queries = write_queries(tmp_path / "q.txt", make_queries(["alpha"], 4, seed=2))
    config_a = write_config(dir_a / "run.conf", out_dir=dir_a)
    config_b = write_config(dir_b / "run.conf", out_dir=dir_b)
    assert cmd_train(str(config_a), str(queries)) == 0
    assert cmd_train(str(config_b), str(queries), seed=1234) == 0
    assert (dir_a / "params.bin").read_bytes() != (dir_b / "params.bin").read_bytes()


def test_infer_query_file_prints_accounting(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf")
    queries = write_queries(tmp_path / "q.txt",
                            make_queries(["alpha"], 3, seed=3, salt="eval"))
    assert cmd_infer(str(config), queries_path=str(queries)) == 0
    out = capsys.readouterr().out
    assert out.count("query ") == 3
    assert "total: queries=3" in out
    trace = read_trace(tmp_path / "trace.jsonl")
    assert len(trace) == 3


def test_infer_requires_exactly_one_query_source(tmp_path):
    config = write_config(tmp_path / "run.conf")
    with pytest.raises(ValueError, match="exactly one"):
        cmd_infer(str(config))
    with pytest.raises(ValueError, match="exactly one"):
        cmd_infer(str(config), query="q", queries_path="other")


def test_infer_with_zero_params_reaches_dense_limit(tmp_path):
    # zero parameters give uniform logits, so k hits max_route = pool_size
    config_obj = RouterConfig(pool_size=4, max_route=4, temperature=0.1,
                              embed_dim=16, max_steps=2, train_steps=2, seed=7)
    zeros = RouterParams(np.zeros(init_params(config_obj).flat.size), 16, 4)
    snapshot = tmp_path / "zeros.bin"
    save_params(snapshot, zeros, config_obj)
    config = write_config(tmp_path / "run.conf", pool_size=4, max_route=4,
                          max_steps=2, params_in=str(snapshot))
    assert cmd_infer(str(config), query="[tag:alpha] boundary probe") == 0
    trace = read_trace(tmp_path / "trace.jsonl")
    assert trace[0].steps[0].k == 4


# A snapshot of write_config's default shape (embed_dim 16, pool_size 4):
# the header, then 1,668 float64 parameters.
_SNAPSHOT_HEADER = b"ARPS" + struct.pack("<III Q", 1, 16, 4, 7)
_SNAPSHOT_TENSOR_BYTES = 8 * 1668


def _malformed_snapshots():
    headers = st.builds(
        lambda version, d, n, seed: b"ARPS" + struct.pack("<III Q", version, d, n, seed),
        st.integers(0, 2), st.sampled_from([16, 0, 15, 20000, 2**32 - 1]),
        st.sampled_from([4, 0, 3, 2**32 - 1]), st.integers(0, 2**64 - 1))
    valid_size = len(_SNAPSHOT_HEADER) + _SNAPSHOT_TENSOR_BYTES
    padded = _SNAPSHOT_HEADER + bytes(_SNAPSHOT_TENSOR_BYTES + 16)
    return st.one_of(
        st.binary(max_size=48),
        st.builds(operator.add, headers, st.binary(max_size=64)),
        st.one_of(st.integers(0, 24), st.integers(0, len(padded)))
        .filter(lambda size: size != valid_size).map(lambda size: padded[:size]))


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_malformed_snapshots())
def test_infer_reports_any_malformed_snapshot_as_one_error_line(tmp_path, capsys, data):
    snapshot = tmp_path / "params.bin"
    snapshot.write_bytes(data)
    config = write_config(tmp_path / "run.conf", params_in=str(snapshot))
    capsys.readouterr()
    assert main(["infer", "--config", str(config), "--query", "[tag:alpha] q"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: [^\n]*\n", err), err


def test_train_unwritable_output_fails_with_path_in_message(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf")
    text = config.read_text().replace(
        f"params_out = {tmp_path / 'params.bin'}",
        "params_out = /dev/null/nope/params.bin")
    config.write_text(text)
    queries = write_queries(tmp_path / "q.txt", ["[tag:alpha] q"])
    code = main(["train", "--config", str(config), "--queries", str(queries)])
    assert code == 1
    assert "/dev/null/nope/params.bin" in capsys.readouterr().err


# --- ttt ---

def test_cmd_ttt_writes_params_and_traces(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf", max_steps=2, train_steps=1)
    queries = write_queries(tmp_path / "q.txt",
                            make_queries(["alpha"], 14, seed=5, salt="stream"))
    with pytest.warns(UserWarning):
        assert cmd_ttt(str(config), str(queries), t_dense=4) == 0
    out = capsys.readouterr().out
    assert "adapted on 4 dense queries" in out
    trace = read_trace(tmp_path / "trace.jsonl")
    assert len(trace) == 14
    assert trace[0].steps[0].entropy_E is not None
    assert trace[-1].steps[0].entropy_E is None
    assert (tmp_path / "params.bin").exists()


# --- gradcheck ---

def test_cmd_gradcheck_passes_and_reports(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf", seed=11)
    assert cmd_gradcheck(str(config)) == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out
    reported = float(out.strip().rsplit(" ", 1)[-1])
    assert reported <= 1e-5


def test_cmd_gradcheck_corrupt_hook_fails(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf", seed=11)
    assert cmd_gradcheck(str(config), corrupt=True) == 1
    assert "FAILED" in capsys.readouterr().err


def test_cmd_gradcheck_is_deterministic(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf", seed=11)
    cmd_gradcheck(str(config))
    first = capsys.readouterr().out
    cmd_gradcheck(str(config))
    second = capsys.readouterr().out
    assert first == second


# --- simulate ---

def test_simulate_chain_executes_agents_in_rotation(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf", pool_size=4, max_route=2,
                          max_steps=4)
    assert cmd_simulate(str(config), "chain") == 0
    trace = read_trace(tmp_path / "trace.jsonl")[0]
    executed = [set(rec.selected_ids) for rec in trace.steps]
    assert executed == [{0}, {1}, {2}, {3}]
    assert "chain pattern verified" in capsys.readouterr().out


def test_simulate_star_alternates_hub_and_spokes(tmp_path):
    config = write_config(tmp_path / "run.conf", pool_size=4, max_steps=4)
    assert cmd_simulate(str(config), "star") == 0
    trace = read_trace(tmp_path / "trace.jsonl")[0]
    executed = [set(rec.selected_ids) for rec in trace.steps]
    assert executed == [{0}, {1, 2, 3}, {0}, {1, 2, 3}]


def test_simulate_complete_and_moa_execute_everyone(tmp_path):
    for topology in ("complete", "moa"):
        config = write_config(tmp_path / f"{topology}.conf", pool_size=4,
                              max_steps=3)
        assert cmd_simulate(str(config), topology) == 0
        trace = read_trace(tmp_path / "trace.jsonl")[0]
        assert [rec.k for rec in trace.steps] == [4, 4, 4]


def test_simulate_moa_trace_shape_matches_complete(tmp_path):
    config = write_config(tmp_path / "run.conf", pool_size=3, max_steps=3)
    assert cmd_simulate(str(config), "complete") == 0
    complete = read_trace(tmp_path / "trace.jsonl")[0]
    assert cmd_simulate(str(config), "moa") == 0
    moa = read_trace(tmp_path / "trace.jsonl")[0]
    assert [rec.selected_ids for rec in complete.steps] == \
        [rec.selected_ids for rec in moa.steps]
    assert [rec.k for rec in complete.steps] == [rec.k for rec in moa.steps]


def test_simulate_context_provenance_is_verified(tmp_path):
    config = write_config(tmp_path / "run.conf", pool_size=4, max_steps=4)
    assert cmd_simulate(str(config), "chain") == 0
    trace = read_trace(tmp_path / "trace.jsonl")[0]
    problems = verify_topology_trace(trace, "chain", 4, HashEmbedder(16))
    assert problems == []
    # corrupting a context vector must be detected
    trace.steps[1].context_X = trace.steps[1].context_X + 1e-3
    problems = verify_topology_trace(trace, "chain", 4, HashEmbedder(16))
    assert any("weighted" in p for p in problems)


def test_simulate_unknown_topology_is_an_error(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf")
    with pytest.raises(SystemExit):
        main(["simulate", "--config", str(config), "--topology", "torus"])


# --- main dispatch ---

def test_main_reports_config_errors(tmp_path, capsys):
    missing = tmp_path / "missing.conf"
    code = main(["infer", "--config", str(missing), "--query", "q"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "train"])
def test_main_reports_an_unknown_tag_without_default(tmp_path, capsys, command):
    config = write_config(tmp_path / "run.conf", skills=["alpha:0.2:0.0"])
    queries = write_queries(tmp_path / "q.txt", ["[tag:poetry] write a verse"])
    source = (["--query", "[tag:poetry] write a verse"] if command == "infer"
              else ["--queries", str(queries)])
    assert main([command, "--config", str(config), *source]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: (training query 0 failed: )?agent \d has no skill entry for tag"
        r" 'poetry' and no default\n", err), err


@pytest.mark.parametrize("skill, message", [
    ("alpha:2.0:nan", r"\S+: \[agent 0\] jitter for tag 'alpha' must be finite and non-negative"),
    ("alpha:2.0:inf", r"\S+: \[agent 0\] jitter for tag 'alpha' must be finite and non-negative"),
    ("alpha:nan:0.1",
     r"\S+: \[agent 0\] target entropy for tag 'alpha' must lie in \[0, ln vocab_size\]"),
    ("alpha:2.0:x", r"\S+:\d+: skill entropy and jitter must be numbers"),
], ids=["nan-jitter", "inf-jitter", "nan-target", "not-a-number"])
def test_main_reports_a_non_finite_skill_as_one_error_line(tmp_path, capsys, skill, message):
    # The config parser rejects what is not a number; the profile rejects a
    # NaN or infinite one.
    config = write_config(tmp_path / "run.conf", skills=[skill])
    capsys.readouterr()
    assert main(["infer", "--config", str(config), "--query", "[tag:alpha] q"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"error: {message}\n", err), err


@pytest.mark.parametrize("key", ["clip_norm", "triplet_margin"])
def test_main_rejects_a_nan_training_float_with_its_line(tmp_path, capsys, key):
    # float() parses "nan": a NaN clip_norm would switch clipping off and a
    # NaN triplet_margin would train to a NaN loss, both without a word.
    config = write_config(tmp_path / "run.conf", loss="triplet")
    text = config.read_text().replace("loss = triplet", f"loss = triplet\n{key} = nan")
    config.write_text(text)
    line = text.splitlines().index(f"{key} = nan") + 1
    queries = write_queries(tmp_path / "q.txt", make_queries(["alpha"], 4, seed=1))
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--queries", str(queries)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {config}:{line}: key '{key}' must be a number\n"
    assert not (tmp_path / "params.bin").exists()


@pytest.mark.parametrize("old, new, message", [
    ("loss = ranking", "loss = ranking\nbeta1 = inf",
     r"\S+: \[training\] beta1 must be in \[0, 1\)"),
    ("temperature = 0.1", "temperature = inf", r"\S+: \[router\] temperature must be finite"),
], ids=["beta1", "temperature"])
def test_main_rejects_an_infinite_setting_before_training(tmp_path, capsys, old,
                                                           new, message):
    # float() parses "inf"; an infinite beta1 would overflow the AdamW
    # moments and an infinite temperature would route max_route agents on
    # every step.
    config = write_config(tmp_path / "run.conf")
    config.write_text(config.read_text().replace(old, new))
    queries = write_queries(tmp_path / "q.txt", make_queries(["alpha"], 4, seed=1))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(config), "--queries", str(queries)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"error: {message}\n", err), err
    assert not (tmp_path / "params.bin").exists()


def test_main_names_the_agent_section_of_a_bad_profile_value(tmp_path, capsys):
    # Eight [agent i] sections share their keys; the error must say which
    # one holds the bad value.
    config = write_config(tmp_path / "run.conf", pool_size=8)
    sections = config.read_text().split("[agent ")
    sections[6] = sections[6].replace("\n", "\nvocab_size = 1\n", 1)
    config.write_text("[agent ".join(sections))
    capsys.readouterr()
    assert main(["infer", "--config", str(config), "--query", "[tag:alpha] q"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {config}: [agent 5] vocab_size must lie in [2, 2**32]\n"


# Port 9 (discard) has no listener, so every request is refused at once.
DEAD_ENDPOINT = "http://127.0.0.1:9/v1"


@pytest.mark.parametrize("section, dead", [
    ("[summarizer]\nbackend = mock", "[summarizer]\nbackend = chat\nendpoint = " + DEAD_ENDPOINT),
    ("[embedder]\nkind = hash", "[embedder]\nkind = remote\nendpoint = " + DEAD_ENDPOINT),
], ids=["summarizer", "embedder"])
def test_main_reports_unreachable_endpoint_without_traceback(tmp_path, section, dead):
    config = write_config(tmp_path / "run.conf")
    text = config.read_text()
    assert section in text
    config.write_text(text.replace(section, dead))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "agentroute.cli", "infer", "--config", str(config),
         "--query", "[tag:alpha] q"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_main_runs_gradcheck(tmp_path, capsys):
    config = write_config(tmp_path / "run.conf", seed=3)
    assert main(["gradcheck", "--config", str(config)]) == 0
