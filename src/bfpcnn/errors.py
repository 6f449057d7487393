"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all package errors."""


class ConfigError(Error):
    """A run configuration file or flag value could not be parsed (exit 1)."""


class DataError(Error):
    """A dataset, image or checkpoint cannot be used as given (exit 2)."""


# tensor construction / shape algebra
class ZeroDim(Error):
    """A requested tensor dimension is zero or negative."""


class DimMismatch(Error):
    """Array lengths or operand shapes are incompatible."""


class NotScalar(Error):
    """backward() was called on a tensor with more than one element."""


class NoTape(Error):
    """backward() was called on a value with no recorded computation."""


# preprocessing
class EvenWindow(ConfigError):
    """Median filter windows must be odd."""


class UnreadableImage(DataError):
    """An image file is missing, truncated or not a valid binary PGM."""


# layers and blocks
class ChannelMismatch(Error):
    """Input channel count does not match the parameter tensors."""


class KernelTooLarge(Error):
    """Kernel or pooling window exceeds the input extent under valid padding."""


class BatchTooSmall(DataError):
    """Batch normalization in train mode needs at least two values per channel."""


class SpatialMismatch(Error):
    """Depth concatenation requires equal batch and spatial dimensions."""


class ShapeChange(Error):
    """A residual inner path altered the tensor shape."""


# model assembly and checkpoints
class ShapeMismatch(DataError):
    """A batch fed to the model has the wrong shape."""


class BadMagic(DataError):
    """Checkpoint file does not start with the expected magic bytes."""


class VersionMismatch(DataError):
    """Checkpoint format version is not supported."""


class TruncatedFile(DataError):
    """Checkpoint file ended before all declared tensors were read."""


class ShapeConflict(DataError):
    """Checkpoint tensors do not match the configured model."""


# training and metrics
class LabelOutOfRange(DataError):
    """A class label lies outside [0, class_count)."""


class EmptyClass(DataError):
    """A class has too few samples to appear in both data splits."""


class LengthMismatch(DataError):
    """Prediction and label sequences differ in length."""


class EmptyMatrix(DataError):
    """Metrics were requested for a confusion matrix with no samples."""


# dataset ingestion
class MissingClassDir(DataError):
    """A required class subdirectory is absent from the dataset root."""
