"""Teacher-guided contrastive representation learning on synthetic video
corpora: a trainable student encoder is pulled toward frozen-teacher guidance
features of the same video and pushed from a FIFO queue of past guidance
features, with optional differentiated multi-teacher weighting and a joint
supervised objective.

Import from the submodules (``dtg.trainer``, ``dtg.evaluation``, ...); the
package root defines only ``__version__``."""

__version__ = "0.1.0"
