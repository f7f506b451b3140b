"""Root systems by family and rank, through the library's per-type cache."""

from hlgal.rootdata import RootSystemSpec, build_root_system


def root_system(family, rank):
    return build_root_system(RootSystemSpec(family, rank))
