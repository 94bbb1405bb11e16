"""`--format records` output compared byte for byte with recorded goldens.

Each file under tests/golden/ holds the records output of one command.
The goldens were written before the packed-integer coefficient kernel
replaced the Fraction one, so arithmetic rewrites must leave every
equation, matrix, basis and check report exactly as it was.  The one
exception is mf-length-3, first recorded with the leading-word echelon
span solve, since the Bareiss solve before it did not finish: the run that
wrote it passed the pipeline's own exact checks (C^2 = g I and the
centring of x), and sympy confirmed C^2 = g I from the file.  `catalog show` and `specialize`
print the records header, followed by the presentation text itself; `catalog
list` and the `catalog show` goldens pin the catalog table's order, its
stored texts and its generated presentations.  The
pipeline goldens stay byte-identical when a pipeline's truncation degree
is lowered, as a successful expansion is unique.
"""

from pathlib import Path

import pytest

from flopcalc.cli import EXIT_OK, run

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "mf-length-1": ["mf", "--length", "1"],
    "mf-length-2-nice": ["mf", "--length", "2", "--nice-basis"],
    "mf-length-3": ["mf", "--length", "3"],
    "mf-laufer": ["mf", "--builtin", "laufer"],
    "mf-length-3-example": ["mf", "--builtin", "length-3-example"],
    "hypersurface-length-2": ["hypersurface", "--length", "2"],
    "hypersurface-length-3": ["hypersurface", "--length", "3"],
    "gb-laufer-nccr-10": ["gb", "--builtin", "laufer-nccr", "--degree", "10"],
    "contraction-laufer-nccr-2": ["contraction", "--builtin", "laufer-nccr", "--length", "2"],
    "contraction-length-3-nccr-3": ["contraction", "--builtin", "length-3-nccr",
                                    "--vertex", "0", "--length", "3"],
    "contraction-laufer-2": ["contraction", "--builtin", "laufer", "--length", "2"],
    "verify-rep-length-2-U0": ["verify-rep", "--builtin", "length-2", "--chart", "U0"],
    "verify-rep-length-2-U1": ["verify-rep", "--builtin", "length-2", "--chart", "U1"],
    "invariants-length-3": ["invariants", "--length", "3"],
    "nf-length-2-aA-6": ["nf", "--builtin", "length-2", "--element", "a*A", "--degree", "6"],
    "gv-27-6-3": ["gv", "--dim", "27", "--dim-ab", "6", "--length", "3"],
    "catalog-list": ["catalog", "list"],
    "catalog-show-length-2": ["catalog", "show", "length-2"],
    "catalog-show-preprojective-E6": ["catalog", "show", "preprojective-E6"],
    "catalog-show-deformed-preprojective-D4": ["catalog", "show", "deformed-preprojective-D4"],
    "catalog-show-central-fibre-5": ["catalog", "show", "central-fibre-5"],
    "specialize-length-3-example": ["specialize", "--builtin", "length-3",
                                    "--map", str(GOLDEN / "length-3-example.map")],
}
COMMANDS.update({"superpotential-%s" % name: ["superpotential", "--builtin", name]
                 for name in ("laufer-nccr", "length-3-nccr", "length-4-nccr",
                              "length-5-nccr", "length-6-nccr")})


def test_every_golden_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.records")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_records_are_byte_identical(name, capsys):
    assert run(["--format", "records"] + COMMANDS[name]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / (name + ".records")).read_bytes()
