"""The 12 application domains of the corpus (Figure 1).

The paper's Figure 1 is a histogram of workflow domains split by system
(Taverna vs. Wings) over 12 domains, with 120 workflows in total.  The
figure's exact bar heights are not machine-readable from the paper text,
so this module fixes a deterministic composition that preserves the
documented shape: 12 domains, 70 Taverna + 50 Wings = 120 workflows,
life-science domains dominated by Taverna (myExperiment's profile) and
data-analysis domains dominated by Wings (its published catalog).  The
substitution is recorded in DESIGN.md §2.

Each :class:`Domain` also carries the vocabulary the workflow generator
draws from: step-name pools, the third-party services its Taverna
workflows call (the fault-injection surface), and the data types its
Wings components are defined over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["Domain", "DOMAINS", "domain_by_slug", "total_workflows"]


@dataclass(frozen=True)
class Domain:
    """One application domain of the corpus."""

    name: str
    slug: str
    taverna_workflows: int
    wings_workflows: int
    #: step-name flavour pool used by the template generator
    step_names: Tuple[str, ...]
    #: third-party services Taverna workflows in this domain depend on
    services: Tuple[str, ...]
    #: Wings data types (name, parent) for this domain's components
    data_types: Tuple[Tuple[str, str], ...] = ()


DOMAINS: List[Domain] = [
    Domain(
        "Bioinformatics", "bioinformatics", 14, 4,
        step_names=("fetch_sequences", "blast_search", "parse_hits", "align_sequences",
                    "build_tree", "annotate_genes", "render_summary"),
        services=("ebi-dbfetch", "ncbi-blast", "biomart"),
        data_types=(("SequenceSet", "any"), ("Alignment", "any"), ("GeneReport", "any")),
    ),
    Domain(
        "Genomics", "genomics", 9, 3,
        step_names=("load_assembly", "call_variants", "filter_variants", "annotate_variants",
                    "summarize_calls"),
        services=("ensembl-rest", "ucsc-das"),
        data_types=(("Assembly", "any"), ("VariantSet", "any"), ("VariantReport", "any")),
    ),
    Domain(
        "Proteomics", "proteomics", 7, 2,
        step_names=("load_spectra", "peak_detection", "db_search", "score_matches",
                    "protein_inference"),
        services=("pride-ws", "uniprot-rest"),
        data_types=(("SpectraSet", "any"), ("PeptideMatches", "any"), ("ProteinList", "any")),
    ),
    Domain(
        "Astronomy", "astronomy", 6, 5,
        step_names=("query_catalog", "extract_sources", "calibrate_flux", "crossmatch",
                    "period_analysis", "plot_lightcurve"),
        services=("vo-tap", "sdss-skyserver"),
        data_types=(("SourceCatalog", "any"), ("LightCurve", "any"), ("AstroPlot", "any")),
    ),
    Domain(
        "Biodiversity", "biodiversity", 8, 0,
        step_names=("fetch_occurrences", "clean_records", "geo_filter", "niche_model",
                    "richness_map"),
        services=("gbif-ws", "catalogue-of-life"),
        data_types=(("OccurrenceSet", "any"), ("NicheModel", "any")),
    ),
    Domain(
        "Cheminformatics", "cheminformatics", 6, 2,
        step_names=("fetch_structures", "standardize_mols", "compute_descriptors",
                    "similarity_search", "cluster_compounds"),
        services=("chembl-ws", "pubchem-pug"),
        data_types=(("CompoundSet", "any"), ("DescriptorTable", "any"), ("ClusterReport", "any")),
    ),
    Domain(
        "Text Mining", "text-mining", 5, 6,
        step_names=("harvest_corpus", "tokenize", "tag_entities", "extract_relations",
                    "topic_model", "summarize_topics"),
        services=("pubmed-eutils", "whatizit"),
        data_types=(("DocumentSet", "any"), ("EntitySet", "any"), ("TopicModel", "any")),
    ),
    Domain(
        "Machine Learning", "machine-learning", 3, 9,
        step_names=("load_dataset", "featurize", "train_classifier", "crossvalidate",
                    "evaluate_model", "report_metrics"),
        services=("model-repo",),
        data_types=(("FeatureTable", "any"), ("Classifier", "any"), ("MetricsReport", "any")),
    ),
    Domain(
        "Image Analysis", "image-analysis", 2, 7,
        step_names=("load_images", "denoise", "segment", "extract_features", "classify_regions",
                    "compose_atlas"),
        services=("image-archive",),
        data_types=(("ImageStack", "any"), ("SegmentationMask", "any"), ("FeatureTable2D", "any")),
    ),
    Domain(
        "Geoinformatics", "geoinformatics", 4, 3,
        step_names=("fetch_layers", "reproject", "raster_algebra", "zonal_statistics",
                    "render_map"),
        services=("ogc-wms", "geoserver-wfs"),
        data_types=(("RasterLayer", "any"), ("VectorLayer", "any"), ("MapDocument", "any")),
    ),
    Domain(
        "Social Network Analysis", "social-network-analysis", 3, 4,
        step_names=("crawl_graph", "build_adjacency", "compute_centrality", "detect_communities",
                    "plot_network"),
        services=("twitter-gardenhose",),
        data_types=(("EdgeList", "any"), ("CommunityPartition", "any"), ("NetworkPlot", "any")),
    ),
    Domain(
        "Drug Discovery", "drug-discovery", 3, 5,
        step_names=("screen_library", "dock_ligands", "score_poses", "admet_filter",
                    "rank_candidates"),
        services=("zinc-db", "docking-grid"),
        data_types=(("LigandLibrary", "any"), ("DockingPoses", "any"), ("CandidateList", "any")),
    ),
]

_BY_SLUG: Dict[str, Domain] = {d.slug: d for d in DOMAINS}


def domain_by_slug(slug: str) -> Domain:
    domain = _BY_SLUG.get(slug)
    if domain is None:
        raise KeyError(f"unknown domain {slug!r}")
    return domain


def total_workflows() -> Tuple[int, int, int]:
    """(taverna, wings, total) workflow counts across all domains."""
    taverna = sum(d.taverna_workflows for d in DOMAINS)
    wings = sum(d.wings_workflows for d in DOMAINS)
    return taverna, wings, taverna + wings
