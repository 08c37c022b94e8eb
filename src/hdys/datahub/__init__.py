from .motion import FAMILIES, MotionError, MotionSpec, sample_trajectory
from .profiles import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    DatasetManifest,
    DomainProfile,
    default_profiles,
    generate_dataset,
    generate_sequence,
    load_manifest,
    load_records,
    read_manifest,
    restrict_profiles,
    tree_bundle,
    write_manifest,
)
from .records import DatasetError, read_record, record_from_bytes, record_path, record_to_bytes, write_record
from .sampler import SamplerError, balanced_epoch_sampler, fifty_fifty, single_profile_50, subset_dataset
