"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_table2_command(capsys):
    exit_code = main(["table2", "--d", "6", "--lg-n", "6.0",
                      "--epsilons", "1.0"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "g1= 16" in output and "g2=  4" in output


def test_run_command_tiny(capsys):
    exit_code = main(["run", "--dataset", "normal", "--n-users", "3000",
                      "--n-attributes", "3", "--domain-size", "16",
                      "--n-queries", "10", "--methods", "Uni", "HDG"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Uni" in output and "HDG" in output and "MAE" in output


def test_sweep_command_tiny(capsys):
    exit_code = main(["sweep", "--dataset", "normal", "--n-users", "3000",
                      "--n-attributes", "3", "--domain-size", "16",
                      "--n-queries", "10", "--methods", "Uni",
                      "--parameter", "epsilon", "--values", "0.5", "1.0"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "epsilon" in output
    assert "0.5" in output and "1.0" in output


def test_sweep_command_integer_parameter(capsys):
    exit_code = main(["sweep", "--dataset", "normal", "--n-users", "3000",
                      "--n-attributes", "3", "--domain-size", "16",
                      "--n-queries", "5", "--methods", "Uni",
                      "--parameter", "n_attributes", "--values", "3", "4"])
    assert exit_code == 0
    assert "n_attributes" in capsys.readouterr().out


def test_run_command_with_explicit_granularities(capsys):
    exit_code = main(["run", "--dataset", "normal", "--n-users", "3000",
                      "--n-attributes", "3", "--domain-size", "16",
                      "--n-queries", "5", "--methods", "HDG(8,4)"])
    assert exit_code == 0
    assert "HDG(8,4)" in capsys.readouterr().out


def test_run_command_with_shards(capsys):
    exit_code = main(["run", "--dataset", "normal", "--n-users", "4000",
                      "--n-attributes", "3", "--domain-size", "16",
                      "--n-queries", "10", "--methods", "HDG",
                      "--shards", "2"])
    assert exit_code == 0
    assert "MAE" in capsys.readouterr().out
