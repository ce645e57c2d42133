"""Exchange-invariant evaluation of binary decision rules.

LxCIM scores a scored binary classifier by how well it decides, not by which
class it favours: it is twice the area under the cumulative accuracy curve of
the decision-confidence sweep, and it is invariant when any subset of samples
has its class exchanged across the decision threshold.  The package also
provides AUDRC (confidence-weighted running accuracy), classic weighted
accuracy and AUROC, the exchange transform and dataset duplication, a
brute-force AUROC oracle, invariance checkers, synthetic generators, and file
ingestion.
"""

from .errors import *
from .exchange import *
from .io import ingest, read_prediction_rows, write_curve_csv, write_prediction_file
from .metrics import *
from .model import *
from .verify import *

__version__ = "0.1.0"

# the imports above bind each submodule here; io's parsing pieces stay in lxcim.io
__all__ = ["__version__"]
__all__ += model.__all__
__all__ += metrics.__all__
__all__ += exchange.__all__
__all__ += verify.__all__
__all__ += ["ingest", "read_prediction_rows", "write_prediction_file", "write_curve_csv"]
__all__ += errors.__all__
