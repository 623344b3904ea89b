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
"""

from .faces import FACES, adjacent_faces
from .geometry import (
    CameraPose,
    CubemapVideo,
    PerspectiveFrame,
    cubemap_to_equirect,
    equirect_to_cubemap,
    project_perspective_to_cubemap,
    sample_trajectory,
)
from .planner import (
    GenerationPlan,
    PlanStep,
    frame_coverage,
    partition_windows,
    plan_order,
    window_coverage,
)
from .context import (
    ContextBundle,
    FragmentSpec,
    assemble_context,
    history_windows,
    select_future_fragments,
    short_horizon_coverage,
)
from .attention import (
    AttentionInputs,
    BandedMaskSpec,
    TokenLayout,
    attention_flops,
    dense_masked_attention,
    sparse_context_attention,
)
from .continuity import (
    blend_overlaps,
    corner_cycle_identity,
    edge_adjacency,
    face_position_grid,
    pad_face,
    seam_metric,
)
from .pipeline import (
    SamplerConfig,
    euler_sample,
    generate_all,
    generate_step,
    oracle_denoiser,
)
from .config import RunConfig, parse_config
from .scene import SyntheticScene, synth_scene

__version__ = "0.1.0"
