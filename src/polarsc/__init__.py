"""Polar successive-cancellation decoding toolkit."""

from .code import (
    CodeSpec,
    bec_reliabilities,
    construct_frozen_mask,
    encode,
    extract_data,
    load_mask,
    save_mask,
)
from .hardware import (
    ComplexityCounts,
    GateDelays,
    Metrics,
    base_block_delay,
    complexity,
    delay_closed,
    delay_recursive,
    dynamic_power,
    metrics,
    structural_unit_counts,
)
from .hybrid import (
    DEFAULT_COMB_THROUGHPUT_BPS,
    HybridConfig,
    HybridReport,
    component_inputs,
    hybrid_decode,
    latency_gain,
    semi_parallel_latency,
)
from .llr import (
    QFormat,
    QLlr,
    decide_even_simplified,
    decide_odd,
    f_exact,
    f_minsum,
    g_fn,
    qf_minsum,
    qg_fn,
    qg_saturates,
    quantize,
    sign_bit,
)
from .pipeline import PipelinedDecoder, PipelineTimingModel, pipeline_throughput
from .simulate import (
    AwgnChannel,
    FerPoint,
    SimConfig,
    channel_llrs,
    csv_text,
    run_point,
    run_sweep,
    write_csv,
)
from .vectorized import DecoderKernel, decode, decode_batch, encode_batch, quantize_batch

__version__ = "0.1.0"
