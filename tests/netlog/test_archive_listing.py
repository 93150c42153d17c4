"""The archive listing: one walk over path strings, in ``sorted(Path)`` order."""

from pathlib import Path

import pytest

from repro.netlog import NetLogArchive
from repro.netlog.codec import ARCHIVE_SUFFIXES

#: Names that order differently as whole strings and as components
#: (``ebay.com/`` vs ``ebay.com.au.json``, ``b-c`` vs ``b``), Path.stem
#: edge cases, case, non-ASCII, depth, and files that are not documents.
TREE = (
    "top2020/windows/ebay.com.json",
    "top2020/windows/ebay.com/nested.json",
    "top2020/windows/ebay.com.au.nlbin",
    "top2020/windows/b-c/x.json",
    "top2020/windows/b/x.nlbin",
    "top2020/windows/.json",
    "top2020/windows/..json",
    "top2020/windows/A.json",
    "top2020/windows/a.json",
    "top2020/windows/é.json",
    "top2020/windows/deep/er/z.nlbin",
    "top2020/windows/x.json.tmp",
    "top2020/windows/z.JSON",
    "top2020/crawl-level.json",
    "top2021/linux/q.json",
    "root-level.nlbin",
)


def _rglob_listing(root: Path, crawl: str | None) -> list[Path]:
    """The listing as ``rglob`` per suffix and ``sorted`` give it (files only)."""
    base = root / crawl if crawl is not None else root
    if not base.is_dir():
        return []
    return sorted(
        path
        for suffix in ARCHIVE_SUFFIXES
        for path in base.rglob(f"*{suffix}")
        if path.is_file()
    )


@pytest.fixture()
def archive(tmp_path):
    archive = NetLogArchive(tmp_path / "netlogs")
    for name in TREE:
        path = archive.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{}")
    # Directories named like documents are not documents.
    (archive.root / "top2020" / "windows" / "dir.json").mkdir()
    (archive.root / "top2020" / "windows" / "dir.nlbin").mkdir()
    return archive


@pytest.mark.parametrize("crawl", [None, "top2020", "top2021", "absent"])
def test_entries_match_the_sorted_rglob_listing(archive, crawl):
    listed = list(archive.entries(crawl))
    assert listed == _rglob_listing(archive.root, crawl)
    assert all(path.is_file() for path in listed)


@pytest.mark.parametrize("crawl", [None, "top2020"])
def test_documents_carry_folder_stem_and_path(archive, crawl):
    documents = archive.documents(crawl)
    assert [
        (path.parent.name, path.stem, str(path))
        for path in _rglob_listing(archive.root, crawl)
    ] == documents


def test_document_key_matches_the_listing(tmp_path):
    archive = NetLogArchive(tmp_path / "netlogs")
    archive.write("crawl", "windows", "a.example", [], format="json")
    archive.write("crawl", "linux", "b.example", [], format="binary")
    assert {(folder, stem) for folder, stem, _ in archive.documents("crawl")} == {
        archive.document_key("windows", "a.example"),
        archive.document_key("linux", "b.example"),
    }
