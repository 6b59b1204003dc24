"""file_checks writes one tree in-process and under two hash seeds, and every check holds."""

import os
import subprocess
import sys

import file_checks


def test_file_checks(tmp_path):
    file_checks.write(tmp_path / "here")
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, file_checks.__file__, tmp_path / seed], env=env,
                       check=True, timeout=600)
    # the CSVs, JSON files and validate reports, the forged double drives' too, byte for byte
    here, *seeds = ({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
                    for root in (tmp_path / "here", tmp_path / "0", tmp_path / "12345"))
    for tree in seeds:
        assert [p for p in here.keys() | tree.keys() if here.get(p) != tree.get(p)] == []
    file_checks.check(tmp_path / "here")
