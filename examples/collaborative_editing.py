#!/usr/bin/env python3
"""Collaborative course editing under the locking compatibility table.

Three instructors work on one shared course database:

* shih edits the implementation of his course (WRITE lock on the
  container);
* huang tries to edit a page inside that container — denied by the
  compatibility table — but freely annotates a different course;
* ma runs QA in parallel (read access), and the configuration manager
  versions each check-in;
* finally a script change shows the referential-integrity alert cascade
  that tells everyone what to revisit.

Run:  python examples/collaborative_editing.py
"""

from __future__ import annotations

from repro.core import (
    AnnotationSCI,
    LockConflictError,
    LockMode,
    ScriptSCI,
    WebDocumentDatabase,
)
from repro.qa import QARunner
from repro.storage.files import DocumentFile, FileKind
from repro.workloads import CourseGenerator


def main() -> None:
    db = WebDocumentDatabase("shared-server")
    db.create_document_database("mmu-shared", author="consortium")
    generator = CourseGenerator(seed=11, pages_per_course=5)
    course_a = generator.generate_course(db, "mmu-shared", author="shih")
    course_b = generator.generate_course(db, "mmu-shared", author="huang")
    impl_a = course_a.implementation
    impl_b = course_b.implementation
    page_in_a = f"file:{impl_a.html_files[0].path}"
    node_a = f"impl:{impl_a.starting_url}"

    # ------------------------------------------------------------------
    # 1. shih write-locks his implementation container.
    # ------------------------------------------------------------------
    db.locks.acquire("shih", node_a, LockMode.WRITE)
    print(f"shih write-locked {node_a}")

    # huang cannot write (or even read) inside that container...
    for mode in (LockMode.WRITE, LockMode.READ):
        try:
            db.locks.acquire("huang", page_in_a, mode)
            print(f"huang {mode.value}-locked {page_in_a} (unexpected)")
        except LockConflictError as exc:
            print(f"huang denied: {exc}")

    # ...but the parent script object stays fully accessible (the
    # paper: "the parent objects of the container can have both read
    # and write access by another user").
    db.locks.acquire("huang", f"script:{impl_a.script_name}", LockMode.WRITE)
    print(f"huang write-locked the parent script:{impl_a.script_name} (allowed)")
    db.locks.release("huang", f"script:{impl_a.script_name}")

    # And an unrelated course is of course free.
    db.locks.acquire("huang", f"impl:{impl_b.starting_url}", LockMode.WRITE)
    print(f"huang write-locked his own course (allowed)")
    db.locks.release("huang", f"impl:{impl_b.starting_url}")
    db.locks.release("shih", node_a)

    # ------------------------------------------------------------------
    # 2. Versioned editing through the configuration manager.
    # ------------------------------------------------------------------
    # A component is a registered file: the check-out WRITE-locks its
    # file: node, and the check-in writes the file, its registry row and
    # the new version in one transaction.
    index_path = impl_a.html_files[0].path
    draft = db.scm.check_out("shih", index_path)
    print(f"\nshih checked out {index_path} "
          f"(v{db.scm.latest(index_path).version})")

    # While shih holds the check-out (a WRITE lock), huang cannot take it.
    try:
        db.scm.check_out("huang", index_path)
    except Exception as exc:
        print(f"huang cannot double check-out: {type(exc).__name__}: {exc}")

    new_content = draft + "\n<!-- revised by shih -->"
    record = db.scm.check_in("shih", index_path, new_content,
                             comment="clarify introduction")
    print(f"shih checked in v{record.version} ({record.comment!r})")
    print(f"version history: "
          f"{[(v.version, v.author) for v in db.scm.history(index_path)]}")

    # ------------------------------------------------------------------
    # 3. huang annotates shih's (now unlocked) course.
    # ------------------------------------------------------------------
    db.add_annotation(
        AnnotationSCI(
            annotation_name="ann-huang-on-a",
            author="huang",
            script_name=impl_a.script_name,
            starting_url=impl_a.starting_url,
            annotation_file=None,
        ),
        DocumentFile(
            f"{impl_a.script_name}/huang-notes.json",
            FileKind.ANNOTATION,
            "{}",
        ),
    )
    print(f"\nannotations on {impl_a.starting_url}: "
          f"{[a.author for a in db.annotations_of(impl_a.starting_url)]}")

    # ------------------------------------------------------------------
    # 4. QA pass + integrity cascade after the edit.
    # ------------------------------------------------------------------
    outcome = QARunner(db, qa_engineer="ma").run(impl_a.starting_url)
    print(f"ma's QA: passed={outcome.passed}; findings="
          f"{[f.kind.value for f in outcome.findings]}")

    db.update_script(impl_a.script_name, {"description": "revised outline"})
    alerts = db.alerts.drain()
    print(f"\nscript update cascaded {len(alerts)} integrity alerts:")
    for alert in alerts:
        print(f"  depth {alert.depth}: {alert.dst_table} "
              f"{'/'.join(map(str, alert.dst_key))}")

    # ------------------------------------------------------------------
    # 5. Course complexity and the white-box regression plan.
    # ------------------------------------------------------------------
    from repro.core import measure_complexity
    from repro.qa import build_test_plan

    cx = measure_complexity(db, db.implementations_of(impl_a.script_name)[0])
    plan = build_test_plan(db.files, db.implementations_of(impl_a.script_name)[0])
    print(f"\ncomplexity of {impl_a.script_name}: score={cx.score:.0f} "
          f"(cyclomatic={cx.cyclomatic}, depth={cx.depth}, "
          f"{cx.media_objects} media objects)")
    print(f"white-box plan: {len(plan.paths)} click-paths, "
          f"{plan.total_clicks} clicks, edge coverage {plan.coverage:.0%}")

    stats = db.locks.stats
    print(f"\nlock stats: acquired={stats.acquired} "
          f"conflicts={stats.conflicts} released={stats.released}")


if __name__ == "__main__":
    main()
