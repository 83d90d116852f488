from importlib import resources
from pathlib import Path

import pytest

from pebblegames.cli import run


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


@pytest.mark.parametrize("option", ["--samples", "--playouts", "--s-max", "--threads"])
def test_verify_counts_must_be_positive(option, capsys):
    assert run(["verify", "figures", option, "0"]) == 2
    assert "positive" in capsys.readouterr().err


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


def test_g2sim_transcript(capsys, tmp_path):
    answers = tmp_path / "ans.txt"
    answers.write_text("2 1 0 2 1\n")
    assert run(["g2sim", "--n", "3", "--C", "2", "--answers", str(answers)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("game g2\n")
    assert "winner: prover" in out
