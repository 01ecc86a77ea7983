"""Teacher-guided contrastive representation learning on synthetic video
corpora: a trainable student encoder is pulled toward frozen-teacher guidance
features of the same video and pushed from a FIFO queue of past guidance
features, with optional differentiated multi-teacher weighting and a joint
supervised objective."""

from .corpus import Corpus, CorpusSpec, Video, generate_corpus, load_corpus, save_corpus
from .evaluation import (
    ProbeConfig,
    ProbeResult,
    class_overlap,
    knn_top1,
    linear_probe,
    project_2d,
    video_features,
)
from .losses import (
    ContrastiveOutcome,
    FusionLevel,
    InfoNCEResult,
    WeightScheme,
    contrastive_batch,
    cross_entropy,
    cross_entropy_batch,
    fused_contrastive,
    info_nce,
    teacher_weights,
)
from .model import (
    ClassifierHead,
    StudentEncoder,
    Teacher,
    TeacherBank,
    build_head,
    build_student,
    build_teacher,
    embed_student,
    embed_teacher,
    load_student,
    save_student,
)
from .numerics import DegenerateInputError, GradReport, finite_diff_check, l2_normalize, softmax
from .queues import ColdQueueError, GuidanceQueue
from .sampling import PairMode, sample_pairs
from .seeding import derive_seed, substream
from .trainer import (
    EpochRecord,
    NumericAbortError,
    RunReport,
    TrainConfig,
    lr_at,
    pretrain,
    sgd_step,
    train_joint,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
