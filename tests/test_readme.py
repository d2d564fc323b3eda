import dataclasses
import re
from pathlib import Path

import entbath

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    return README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_library_example_prints_the_phase_its_comment_names(capsys):
    code = library_section().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.strip()
    comment = code.strip().splitlines()[-1].split("#", 1)[1].strip()
    assert printed == comment == "NSD"


def test_library_names_exist():
    # every backticked name of the section is in the package, every `traj.x` on a Trajectory
    spans = re.findall(r"`([^`\n]+)`", library_section().split("```", 2)[2])
    fields = {f.name for f in dataclasses.fields(entbath.Trajectory)}
    names = [s for s in spans if re.fullmatch(r"[A-Za-z_]\w*", s)]
    attributes = [s[len("traj."):].removesuffix("()") for s in spans if s.startswith("traj.")]
    assert names and attributes
    assert [n for n in names if not hasattr(entbath, n)] == []
    assert [a for a in attributes if a not in fields and not hasattr(entbath.Trajectory, a)] == []
