import inspect
import re
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from pebblegames.cli import CLAIMS, run
from pebblegames.simple_game import format_strategy, prover_small_n


@pytest.fixture()
def fig1_path(tmp_path: Path) -> Path:
    text = resources.files("pebblegames").joinpath("data/fig1.strat").read_text()
    p = tmp_path / "fig1.strat"
    p.write_text(text)
    return p


def test_analyze_fig1(fig1_path, capsys):
    assert run(["analyze", str(fig1_path)]) == 0
    out = capsys.readouterr().out
    assert "loops: (2,0) (2,1) (3,2)" in out
    assert "delayer wins: all s >= 1 winning" in out
    assert "12 edges" in out


def test_play_fig1(fig1_path, tmp_path, capsys):
    answers = tmp_path / "p.play"
    answers.write_text("answers 2 1 0\n")
    assert run(["play", str(fig1_path), str(answers)]) == 0
    out = capsys.readouterr().out
    assert "round 3: question 2 answer 0" in out
    assert "outcome: delayer wins" in out


def test_order_command(tmp_path, capsys):
    a = tmp_path / "a.tree"
    b = tmp_path / "b.tree"
    a.write_text("-\n1\n")
    b.write_text("-\n1\n1.1\n")
    assert run(["order", str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Equal"
    assert run(["order", str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "Less"
    assert out[1].startswith("embed a: ") and out[2].startswith("embed b: ")
    ea = int(out[1].split()[-1])
    eb = int(out[2].split()[-1])
    assert ea > eb  # order-reversing


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.strat"
    bad.write_text("game simple\nn 3\nwat 7\n")
    assert run(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


@pytest.mark.parametrize(
    "maps, line, message",
    [
        # The off-board cell stands in for the missing (1, 0).
        ("map 0 0 -> 1\nmap 5 0 -> 0\n", 6, "off the board"),
        ("map 0 0 -> 1\nmap 1 0 -> 0\nmap 0 0 -> 0\n", 7, "already mapped"),
        ("map 0 0 -> 9\nmap 1 0 -> 0\n", 5, "table value 9 not a pigeon"),
    ],
    ids=["off-board", "repeated", "value"],
)
def test_bad_map_cell_exit_2(tmp_path, capsys, maps, line, message):
    bad = tmp_path / "bad.strat"
    bad.write_text("game simple\nn 1\ns 2\ninit 0\n" + maps)
    assert run(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}" in err and message in err


def test_play_names_the_answers_line_it_refuses(fig1_path, tmp_path, capsys):
    answers = tmp_path / "p.play"
    answers.write_text("# Delayer's holes\nanswers 0 x\n")
    assert run(["play", str(fig1_path), str(answers)]) == 2
    assert "error: line 2: cannot parse 'answers 0 x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, planted, line, message",
    [
        ("n 3", "n 3 9", 2, "cannot parse 'n 3 9'"),
        ("s 3", "s 3 junk", 3, "cannot parse 's 3 junk'"),
        ("s 3", "s 3\ns 2", 4, "'s' already given on line 3"),
    ],
    ids=["n-extra", "s-extra", "s-twice"],
)
def test_analyze_refuses_a_bad_header_line(fig1_path, capsys, old, planted, line, message):
    fig1_path.write_text(fig1_path.read_text().replace(f"{old}\n", f"{planted}\n", 1))
    assert run(["analyze", str(fig1_path)]) == 2
    assert f"error: line {line}: {message}" in capsys.readouterr().err


def test_g2sim_names_the_answers_line_it_refuses(tmp_path, capsys):
    answers = tmp_path / "ans.txt"
    answers.write_text("2 1\n# then\n0 x 1\n")
    assert run(["g2sim", "--n", "3", "--answers", str(answers)]) == 2
    assert "error: line 3: cannot parse '0 x 1'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("-\n1\n2.1\n", "line 3: 2.1 has no parent 2"),
        ("-\n1\n1.0\n", "line 3: bad vertex '1.0'"),
        ("# comment\n1\n", "line 2: 1 has no parent -"),
    ],
    ids=["no-parent", "child-zero", "no-root"],
)
def test_order_names_the_tree_line_it_refuses(tmp_path, capsys, text, message):
    tree = tmp_path / "t.tree"
    tree.write_text(text)
    assert run(["order", str(tree), str(tree)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path):
    assert run(["analyze", str(tmp_path / "nope.strat")]) == 2


def test_bad_input_exit_2(fig1_path, tmp_path, capsys):
    answers = tmp_path / "p.play"
    answers.write_text("answers 2 7 0\n")  # hole 7 is off the board
    tree = tmp_path / "bad.tree"
    tree.write_text("-\n1.x\n")
    letters = tmp_path / "letters.txt"
    letters.write_text("2 x 0\n")
    binary = tmp_path / "binary.strat"
    binary.write_bytes(b"\xff\xfe\x00game")
    assert run(["play", str(fig1_path), str(answers)]) == 2
    assert run(["order", str(tree), str(tree)]) == 2
    assert run(["g2sim", "--n", "1"]) == 2
    assert run(["g2sim", "--n", "3", "--answers", str(letters)]) == 2
    assert run(["analyze", str(binary)]) == 2
    assert capsys.readouterr().err.count("error: ") == 5


def test_unknown_claim_exit_2(capsys):
    assert run(["verify", "no-such-claim"]) == 2
    err = capsys.readouterr().err
    assert "'no-such-claim'" in err and "theorem-main-n3" in err and "oracle-equivalence" in err
    # Boards past the registered ones are unknown claims too.
    assert run(["verify", "subset-n5"]) == 2
    assert run(["verify", "theorem-main-n5"]) == 2


@pytest.mark.parametrize("option", ["--samples", "--playouts", "--threads"])
def test_verify_counts_must_be_positive(option, capsys):
    assert run(["verify", "figures", option, "0"]) == 2
    assert "positive" in capsys.readouterr().err


def test_analyze_s_max_must_be_positive(fig1_path, capsys):
    assert run(["analyze", str(fig1_path), "--s-max", "0"]) == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("s_max_args, bound", [(["--s-max", "1"], 3), ([], 64)])
def test_analyze_lists_the_winning_lengths_of_a_prover_won_table(
    tmp_path, capsys, s_max_args, bound
):
    # Prover's n = 2 table: Delayer wins only s = 1, 2.  The list runs to
    # --s-max, and at least to the preperiod.
    path = tmp_path / "prover.strat"
    path.write_text(format_strategy(prover_small_n(2, 3)))
    assert run(["analyze", str(path), *s_max_args]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"delayer wins: winning s <= {bound}: [1, 2]; tail: preperiod=3 period=1 residues=[]"
    )


@pytest.mark.parametrize(
    "argv, option",
    [
        (["figures", "--samples", "7"], "--samples"),
        (["g2prime", "--samples", "7"], "--samples"),
        (["small-n", "--seed", "3"], "--seed"),
        (["order-axioms", "--playouts", "9"], "--playouts"),
        (["loop-bound-n3", "--checkpoint", "ck.txt"], "--checkpoint"),
        (["php-trees", "--threads", "2"], "--threads"),
        (["subset-n2", "--progress"], "--progress"),
        (["theorem-main-n3", "--playouts", "9"], "--playouts"),
        (["figures", "--ce-dir", "ces"], "--ce-dir"),
    ],
)
def test_unread_option_exit_2(argv, option, capsys):
    assert run(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert f"{argv[0]!r} does not read {option}" in err


def test_theorem_main_samples_runs_a_sampled_sweep(capsys):
    assert run(["verify", "theorem-main-n3", "--samples", "2000", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert out == "claim=theorem-main-n3-sampled space=2000 counterexamples=0 seconds=0.000\n"
    assert run(["verify", "theorem-main-n3", "--samples", "2000", "--seed", "5"]) == 0


def test_seed_without_samples_exit_2(capsys):
    assert run(["verify", "theorem-main-n3", "--seed", "5"]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["php-trees", "--samples", "3", "--seed", "-1"],
        ["theorem-main-n4", "--samples", "10", "--seed", "-5"],
        ["oracle-equivalence", "--seed", "-1"],
        ["order-axioms", "--seed", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exit_2(argv, capsys):
    # A seed the generators refuse is bad input, not a counterexample (exit 1).
    assert run(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert "argument --seed:" in err and "is not a non-negative integer" in err


def test_seed_zero_is_a_seed(capsys):
    assert run(["verify", "theorem-main-n1", "--samples", "8", "--seed", "0", "--no-timing"]) == 1
    assert capsys.readouterr().out.startswith("claim=theorem-main-n1-sampled space=8 ")


def test_sample_larger_than_the_space_exit_2(capsys):
    assert run(["verify", "theorem-main-n1", "--samples", "100"]) == 2
    assert "--samples 100 exceeds the 8 tables" in capsys.readouterr().err
    assert run(["verify", "theorem-main-n1", "--samples", "8", "--no-timing"]) == 1


def test_checkpoint_of_another_run_exit_2(tmp_path, capsys):
    ck = tmp_path / "ck.txt"
    ck.write_text("batch 0 8\n")  # a batch record with no header line
    assert run(["verify", "theorem-main-n1", "--checkpoint", str(ck)]) == 2
    ck.write_text("theorem-main checkpoint n=1 batch_size=262144\n")
    assert run(["verify", "theorem-main-n1", "--checkpoint", str(ck), "--samples", "4"]) == 2
    assert capsys.readouterr().err.count("error: ") == 2
    assert ck.read_text() == "theorem-main checkpoint n=1 batch_size=262144\n"


def test_readme_lists_the_registered_claims():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z0-9-]+)` \|(.*)\|$", readme, flags=re.M)
    assert [name for name, _ in rows] == list(CLAIMS)
    for name, options in rows:
        reads = {"--" + option.replace("_", "-") for option in CLAIMS[name][1]}
        assert set(re.findall(r"`(--[a-z-]+)`", options)) == reads, name


def test_verify_passes_only_the_options_set_and_campaigns_hold_the_defaults(monkeypatch):
    # A claim calls its campaign with the options the user set, so every
    # default is the campaign's own; theorem-main-n4 alone sets its sample.
    from pebblegames import verify as ver

    calls = {}

    def recorder(name):
        def campaign(*args, **kwargs):
            calls.setdefault(name, []).append(kwargs)
            return ver.CampaignReport(name, 0)

        return campaign

    real = {name: getattr(ver, name) for name in dir(ver) if name.startswith("verify_")}
    for name in real:
        monkeypatch.setattr(ver, name, recorder(name))
    assert run(["verify", "php-trees"]) == 0
    assert run(["verify", "php-trees", "--samples", "7", "--seed", "3"]) == 0
    assert calls.pop("verify_php_trees") == [{}, {"samples": 7, "seed": 3}]
    assert run(["verify", "theorem-main-n4"]) == 0
    assert calls.pop("verify_theorem_main") == [{"n": 4, "sample": 100_000}]
    for claim, (_, reads) in CLAIMS.items():
        if "seed" in reads:
            assert run(["verify", claim]) == 0
    assert set(calls) == {
        "verify_theorem_main", "verify_order_axioms", "verify_g2_properties",
        "verify_g2prime", "verify_php_trees", "verify_oracle_equivalence",
    }
    for name in calls:
        assert inspect.signature(real[name]).parameters["seed"].default == ver.SEED, name


def test_campaign_failure_is_not_a_usage_error(monkeypatch):
    from pebblegames import verify as ver

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(ver, "verify_figures", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["verify", "figures"])


def test_verify_small_claim_exit_codes(capsys):
    assert run(["verify", "small-n", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("claim=small-n ")
    assert "seconds=0.000" in out


def test_verify_times_each_claim_once(capsys, monkeypatch):
    # The claim table reads the clock around the whole campaign, and
    # --no-timing prints zero seconds without changing anything else.
    from pebblegames import cli

    clock = iter([10.0, 12.5, 20.0, 21.0])
    monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: next(clock)))
    assert run(["verify", "figures"]) == 0
    assert capsys.readouterr().out == "claim=figures space=16 counterexamples=0 seconds=2.500\n"
    assert run(["verify", "figures", "--no-timing"]) == 0
    assert capsys.readouterr().out == "claim=figures space=16 counterexamples=0 seconds=0.000\n"


def test_verify_theorem_n2_finds_counterexamples(capsys, tmp_path):
    code = run(
        [
            "verify",
            "theorem-main-n2",
            "--no-timing",
            "--ce-dir",
            str(tmp_path / "ces"),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "counterexamples=" in out
    assert not out.startswith("claim=theorem-main-n2 space=2187 counterexamples=0")
    assert any((tmp_path / "ces").iterdir())


def test_verify_reports_byte_identical(capsys):
    assert run(["verify", "figures", "--no-timing"]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "figures", "--no-timing"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_g2sim_has_no_strategy_flag(capsys):
    # The root-ramify Prover is the only one g2sim plays.
    assert run(["g2sim", "--n", "3", "--strategy", "root-ramify"]) == 2
    assert "--strategy" in capsys.readouterr().err


def test_g2sim_transcript(capsys, tmp_path):
    answers = tmp_path / "ans.txt"
    answers.write_text("2 1 0 2 1\n")
    assert run(["g2sim", "--n", "3", "--C", "2", "--answers", str(answers)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("game g2\n")
    assert "winner: prover" in out
