from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_phase_its_comment_names(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.strip()
    comment = code.strip().splitlines()[-1].split("#", 1)[1].strip()
    assert printed == comment == "NSD"
