"""The package's public surface: its export list and the README quickstart."""

import re
from pathlib import Path

import curvejoin
from curvejoin import curves, engine, experiments, frechet, lsh

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_module_lists_in_import_order():
    modules = (curves, frechet, lsh, engine, experiments)
    assert curvejoin.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(curvejoin.__all__)) == len(curvejoin.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(curvejoin, name) is getattr(m, name)


def test_names_public_in_their_module_are_public_in_the_package():
    from curvejoin import SimplifiedCopies, read_trajectory_2d

    assert read_trajectory_2d is curves.read_trajectory_2d
    assert SimplifiedCopies is frechet.SimplifiedCopies


def test_readme_quickstart_prints_what_its_comments_promise(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    promised = re.findall(r"^print\(.*\)[ \t]+# (.+)$", block, re.M)
    assert promised == ["Verdict.NEAR simpl-10", "((0, 1),)"]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == promised
