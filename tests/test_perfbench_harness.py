"""The benchmark's own self-tests, collected with the rest of the suite.

`perfbench/test_perfbench.py` runs the benchmark's staged path on the
library: `localized_numerator`, `exact_divide` by each line's
`MultiPoly.linear_form`, then `GenusExpansion(s, n, form)`, checked
against the untraced run and against `chern_dold_genus`.  Its unittest
cases are imported here unchanged.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from test_perfbench import Oracles, SeedDiscipline, SpeedProbe, StagedTrace  # noqa: E402,F401
