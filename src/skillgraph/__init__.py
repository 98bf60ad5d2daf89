"""Course/job corpus integration into one typed skill graph, with
community-restricted meta-path ranking and an evaluation harness."""

from .community import (CommunityPartition, FlowModel, compute_flow, detect_communities,
                        map_equation, merge_partitions)
from .errors import (CommunityError, ConfigError, EvalError, GraphError, IngestError,
                     QueryError, SkillGraphError)
from .graph import (GraphIndex, HeteroGraph, NodeKind, Relation, build_career_graph,
                    build_education_graph, merge_graphs, read_snapshot, skill_key, write_snapshot)
from .ingest import (Course, EnrollmentRecord, Job, Skill, load_course_skills, load_courses,
                     load_enrollments, load_jobs, load_skills, tokenize)
from .linker import Bm25Params, Postings, bm25, link_skills, term_postings
from .metrics import (JudgedRun, MetricReport, average_precision, baseline_vector_space,
                      metric_report, precision, precision_at)
from .ranker import (MetaPath, MetaPathStep, RankedList, ScenarioInput, recommend,
                     resolve_job_query, score_metapath)
from .synth import generate_synthetic_corpus

__version__ = "0.1.0"

__all__ = [
    "Bm25Params", "CommunityError", "CommunityPartition", "ConfigError",
    "Course", "EnrollmentRecord", "EvalError", "FlowModel", "GraphError", "GraphIndex",
    "HeteroGraph", "IngestError", "Job", "JudgedRun", "MetaPath",
    "MetaPathStep", "MetricReport", "NodeKind", "Postings", "QueryError", "RankedList",
    "Relation", "ScenarioInput", "Skill", "SkillGraphError", "average_precision",
    "baseline_vector_space", "bm25", "build_career_graph", "build_education_graph",
    "compute_flow", "detect_communities", "generate_synthetic_corpus",
    "link_skills", "load_course_skills", "load_courses", "load_enrollments", "load_jobs",
    "load_skills", "map_equation", "merge_graphs",
    "merge_partitions", "metric_report", "precision", "precision_at",
    "read_snapshot", "recommend", "resolve_job_query", "score_metapath", "skill_key",
    "term_postings", "tokenize", "write_snapshot",
]
