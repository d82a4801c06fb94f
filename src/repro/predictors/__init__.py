"""Data predictors used by AE-SZ and the baseline compressors."""

from repro.predictors.lorenzo import (
    LorenzoPredictor,
    lorenzo_predict,
    lorenzo_transform,
    lorenzo_inverse_transform,
    second_order_lorenzo_transform,
    second_order_lorenzo_inverse,
)
from repro.predictors.mean import MeanPredictor
from repro.predictors.regression import LinearRegressionPredictor

__all__ = [
    "LorenzoPredictor",
    "lorenzo_predict",
    "lorenzo_transform",
    "lorenzo_inverse_transform",
    "second_order_lorenzo_transform",
    "second_order_lorenzo_inverse",
    "MeanPredictor",
    "LinearRegressionPredictor",
]
