"""CREATe-IR: relation-based information retrieval for case reports.

The paper's core claim: instead of simple keyword match, CREATe-IR
extracts entities and temporal relations from both documents and user
queries, retrieves by knowledge-graph match (Neo4j analog) first and
keyword match (ElasticSearch analog) second, and "outperforms solr".
This package implements the query parser, the dual indexer and the
Figure 6 search workflow.
"""

from repro.ir.cache import QueryCache
from repro.ir.query_parser import ParsedQuery, QueryConceptMention, QueryParser
from repro.ir.indexer import CreateIrIndexer, IndexedReport
from repro.ir.ranking import label_similarity, fuse_results
from repro.ir.searcher import CreateIrSearcher, SearchResult

__all__ = [
    "ParsedQuery",
    "QueryConceptMention",
    "QueryParser",
    "QueryCache",
    "CreateIrIndexer",
    "IndexedReport",
    "label_similarity",
    "fuse_results",
    "CreateIrSearcher",
    "SearchResult",
]
