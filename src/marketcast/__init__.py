"""Time-series forecasting toolkit: preprocessing, ARIMA, GARCH, LSTM, metrics."""

__version__ = "0.1.0"
