"""The README's examples run as written: the Python round trip, and the
command-line walkthrough with the YAML files it shows."""

import re
import shlex
from pathlib import Path

from duffingid.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def write_walkthrough(directory):
    """Write the YAML files of the README's "Command line" section into
    `directory` and return its shell script. Needs no pytest, so CI runs the
    same walkthrough through the installed console script."""
    text = section("Command line")
    for block in fenced_blocks(text, "yaml"):
        name = re.match(r"# (\S+)\n", block).group(1)
        (Path(directory) / name).write_text(block)
    (script,) = fenced_blocks(text, "sh")
    return script


def test_python_round_trip():
    (code,) = fenced_blocks(section("Library overview"), "python")
    namespace = {}
    exec(code, namespace)
    assert namespace["recovered"].m > 0


def test_command_line_walkthrough(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    script = write_walkthrough(tmp_path)
    lines = script.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines
                if line.strip() and not line.startswith("#")]
    assert [argv[1] for argv in commands] == [
        "simulate", "identify", "predict", "evaluate", "report"]
    for argv in commands:
        assert argv[0] == "duffingid"
        capsys.readouterr()
        assert main(argv[1:]) == 0, argv
    mass = re.search(r"^  m +(\S+)$", capsys.readouterr().out, re.M)
    assert mass is not None and float(mass.group(1)) > 0
