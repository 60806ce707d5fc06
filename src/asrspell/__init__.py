"""Post-editing spelling correction for ASR transcripts.

Detects out-of-vocabulary (and optionally in-vocabulary-but-wrong) words in
recognized text, proposes candidates by character-bigram overlap, and picks
the candidate whose preceding-context n-gram is most frequent in a corpus
index. The index can be queried in-process or over a small HTTP service.
"""
from asrspell.backend import Backend, BackendError
from asrspell.candidates import (Candidate, char_bigrams,
                                 generate_candidates, shared_bigram_count)
from asrspell.correct import (CorrectionDecision, CorrectionResult,
                              PipelineConfig, correct_transcript,
                              select_correction)
from asrspell.corrupt import (CorruptionKind, CorruptionRecord,
                              CorruptionSpec, InjectionResult, inject_errors,
                              load_ground_truth, save_ground_truth)
from asrspell.detect import (DetectedError, ErrorKind, Transcript,
                             detect_nonword_errors, detect_realword_suspects,
                             tokenize)
from asrspell.evaluate import EvaluationReport, evaluate
from asrspell.service import RemoteBackend, serve
from asrspell.store import (IndexFormatError, IndexManifest, NgramIndex,
                            build_index, load_index, normalize_token,
                            save_index)

__version__ = "0.1.0"

__all__ = [
    "Backend", "BackendError",
    "Candidate", "char_bigrams", "generate_candidates", "shared_bigram_count",
    "CorrectionDecision", "CorrectionResult", "PipelineConfig",
    "correct_transcript", "select_correction",
    "CorruptionKind", "CorruptionRecord", "CorruptionSpec", "InjectionResult",
    "inject_errors", "load_ground_truth", "save_ground_truth",
    "DetectedError", "ErrorKind", "Transcript", "detect_nonword_errors",
    "detect_realword_suspects", "tokenize",
    "EvaluationReport", "evaluate",
    "RemoteBackend", "serve",
    "IndexFormatError", "IndexManifest", "NgramIndex", "build_index",
    "load_index", "normalize_token", "save_index",
    "__version__",
]
