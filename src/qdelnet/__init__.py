"""qdelnet: a small from-scratch MLP library plus a depth-sweep experiment harness
for predicting question deletion on community Q&A forums."""

from .data import (
    Dataset,
    Question,
    gen_synthetic,
    load_dataset,
    save_dataset,
    split_train_test,
)
from .errors import (
    ConfigError,
    InputError,
    NumericError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .experiment import (
    FileSource,
    SweepConfig,
    SweepRow,
    SyntheticSource,
    grad_flow_report,
    load_source,
    render_plots,
    run_depth_sweep,
    write_outputs,
    write_sweep_csv,
)
from .features import (
    EmbeddingTable,
    featurize_batch,
    load_embeddings,
    save_embeddings,
    tokenize,
)
from .nn import (
    MlpModel,
    ModelConfig,
    activation_buffers,
    backward,
    bce_loss,
    build_model,
    forward,
    gradient_layer_norms,
    load_model,
    save_model,
    sgd_step,
    taper_widths,
)
from .train import (
    TrainConfig,
    TrainReport,
    evaluate,
    initial_gradient_profile,
    split_train_val,
    train,
)

__version__ = "0.1.0"
