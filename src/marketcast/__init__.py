"""Time-series forecasting toolkit: preprocessing, ARIMA, GARCH, LSTM, metrics."""

from .arima import (
    ArimaModel,
    ArimaOrder,
    ForecastMode,
    aic,
    auto_arima,
    difference,
    fit_arma,
    forecast,
    undifference,
)
from .errors import (
    DataError,
    DivergenceError,
    MarketcastError,
    ModelFitError,
    NonConvergenceError,
    NonStationaryError,
)
from .frame import (
    ScalerParams,
    SplitSpec,
    TimeSeriesFrame,
    WindowedDataset,
    apply_scaler,
    chrono_split,
    correlation_vector,
    fit_scaler,
    forward_fill,
    invert_scaler,
    load_csv,
    make_windows,
    select_features,
    write_csv,
)
from .garch import (
    GarchParams,
    GarchState,
    fit_garch11,
    forecast_variance,
    garch_recursion,
    garch_state,
)
from .indicators import (
    DEFAULT_INDICATORS,
    IndicatorKind,
    IndicatorSpec,
    derive_indicators,
    high_low_diff,
    rolling_volatility,
    rsi,
    sma,
)
from .lstm import (
    AdamState,
    LstmConfig,
    LstmLayer,
    LstmNetwork,
    TrainingHistory,
    adam_step,
    backward,
    forward,
    init_network,
    load_checkpoint,
    mse_loss,
    predict_series,
    save_checkpoint,
    train,
)
from .metrics import ForecastReport, accuracy, format_report, mae, report, rmse
from .pipeline import PipelineConfig, RunArtifacts, load_config, run_pipeline

__version__ = "0.1.0"
