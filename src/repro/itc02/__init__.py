"""ITC'02 SoC Test Benchmark substrate.

The paper evaluates its test planner on three circuits of the ITC'02 SoC Test
Benchmarks set (Marinissen et al., ITC 2002): ``d695``, ``p22810`` and
``p93791``.  This subpackage provides everything the rest of the library needs
from that benchmark set:

* a data model for a benchmark SoC (:class:`~repro.itc02.model.SocBenchmark`,
  :class:`~repro.itc02.model.Module`, :class:`~repro.itc02.model.ScanChain`),
* a parser and writer for a line-oriented ``.soc`` dialect
  (:mod:`repro.itc02.parser`, :mod:`repro.itc02.writer`),
* a benchmark library (:mod:`repro.itc02.library`) that loads the three
  circuits used by the paper from bundled .soc files,
* structural validation (:mod:`repro.itc02.validate`), run on every load,
* the deterministic synthetic generator (:mod:`repro.itc02.synth`) that
  reconstructed the bundled files of the two large industrial benchmarks,
  whose original files are not redistributable; the tests keep it as the
  reference for those files.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.itc02.model": ("Module", "ScanChain", "SocBenchmark"),
        "repro.itc02.parser": ("parse_soc", "parse_soc_file"),
        "repro.itc02.writer": ("write_soc", "write_soc_file"),
        "repro.itc02.library": ("available_benchmarks", "load_benchmark"),
        "repro.itc02.validate": ("validate_benchmark",),
    },
)
