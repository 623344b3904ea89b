"""Cubemap-based spatio-temporal autoregressive 360-degree video machinery.

Submodules map one-to-one onto the processing stages:

- :mod:`cubegen.geometry`   projections among perspective / equirect / cubemap
- :mod:`cubegen.planner`    temporal windows and coverage-guided face order
- :mod:`cubegen.context`    [hist; curr; fut] assembly as views of the cube video
- :mod:`cubegen.attention`  sparse context attention, its dense mask reference, FLOPs
- :mod:`cubegen.continuity` flattened-cross positions, padding and blending index maps
- :mod:`cubegen.pipeline`   flow-matching sampler and the generation loop
- :mod:`cubegen.scene`      analytic synthetic scenes for oracles and demos
- :mod:`cubegen.cli`        the ``cubegen`` command-line tool

Names are imported from their submodule (``from cubegen.geometry import
face_directions``); the package itself re-exports none.
"""

__version__ = "0.1.0"
