//! The on-disk checkpoint a sweep can be killed and resumed from.
//!
//! A manifest is a JSON-lines file. The first line is a header naming
//! the format version and the spec (by hash and by canonical body); each
//! following line is one completed [`EpisodeRecord`].
//!
//! Two phases with different write disciplines:
//!
//! * **Journal** — while the sweep runs, records append in *completion*
//!   order, flushed per line. A kill can truncate at most the final
//!   line, which the loader tolerates and drops. Completion order is
//!   scheduling-dependent, so a journal is not canonical — it is a crash
//!   log, not an artifact.
//! * **Canonical** — when every episode is present, [`Manifest::finalize`]
//!   rewrites the file with records sorted by episode index and marks the
//!   header complete. Because each record is a pure function of its
//!   episode index, the canonical bytes are identical whatever the worker
//!   count and however many kill/resume cycles preceded them.

use crate::error::SweepError;
use crate::json::Json;
use crate::spec::{EpisodeRecord, SweepSpec};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Format version stamped into headers; bumped on incompatible change.
pub const MANIFEST_VERSION: i64 = 1;

/// An open manifest: the journal file plus the set of episodes already
/// recorded in it.
#[derive(Debug)]
pub struct Manifest {
    path: PathBuf,
    journal: File,
    /// Completed records keyed by episode index (deduplicated: the first
    /// record for an index wins, matching replay semantics).
    records: BTreeMap<u64, EpisodeRecord>,
    complete: bool,
}

impl Manifest {
    /// Opens `path` for the given spec, creating it with a fresh header
    /// when absent, or loading completed episodes when resuming.
    ///
    /// # Errors
    ///
    /// [`SweepError::ManifestMismatch`] when the file belongs to a
    /// different spec, [`SweepError::Spec`] when the header is
    /// malformed, [`SweepError::Io`] on filesystem failure.
    pub fn open(path: &Path, spec: &SweepSpec) -> Result<Manifest, SweepError> {
        let expected = spec.hash();
        let mut records = BTreeMap::new();
        let mut complete = false;
        // Byte length of the trusted prefix: header plus every intact
        // record line. Anything past it is a kill-mid-write remnant and
        // is truncated away before appends resume, so a resumed journal
        // never writes onto a damaged partial line.
        let mut valid_len = 0u64;
        if path.exists() {
            let data = std::fs::read(path)?;
            // (content, end offset past the newline, newline-terminated).
            let mut lines: Vec<(&[u8], u64, bool)> = Vec::new();
            let mut start = 0usize;
            while start < data.len() {
                let end = data[start..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(data.len(), |i| start + i + 1);
                let intact = data[end - 1] == b'\n';
                let content = &data[start..end - usize::from(intact)];
                lines.push((content, end as u64, intact));
                start = end;
            }
            let parse_header = |(content, _, intact): (&[u8], u64, bool)| {
                if !intact {
                    return Err(SweepError::spec("manifest header: unterminated line"));
                }
                let text = std::str::from_utf8(content)
                    .map_err(|_| SweepError::spec("manifest header: not UTF-8"))?;
                Json::parse(text).map_err(|e| SweepError::spec(format!("manifest header: {e}")))
            };
            match lines.first().copied().map(parse_header) {
                None => {}
                // A kill can land mid-write of the header itself. With no
                // record lines after it, nothing was lost: treat the file
                // as empty and rewrite the header fresh.
                Some(Err(_)) if lines.len() == 1 => {}
                Some(Err(e)) => return Err(e),
                Some(Ok(header)) => {
                    let found = header
                        .get("spec_hash")
                        .and_then(Json::as_str)
                        .ok_or_else(|| SweepError::spec("manifest header missing `spec_hash`"))?
                        .to_string();
                    if found != expected {
                        return Err(SweepError::ManifestMismatch { found, expected });
                    }
                    complete = header
                        .get("complete")
                        .and_then(Json::as_bool)
                        .unwrap_or(false);
                    valid_len = lines[0].1;
                    let last = lines.len() - 1;
                    for (i, &(content, end, intact)) in lines.iter().enumerate().skip(1) {
                        if content.iter().all(u8::is_ascii_whitespace) {
                            if intact {
                                valid_len = end;
                            }
                            continue;
                        }
                        match std::str::from_utf8(content)
                            .map_err(|_| SweepError::spec("record line is not UTF-8"))
                            .and_then(|text| Json::parse(text).map_err(SweepError::from))
                            .and_then(|v| EpisodeRecord::from_json(&v))
                        {
                            Ok(record) if intact => {
                                records.entry(record.episode).or_insert(record);
                                valid_len = end;
                            }
                            // An unterminated final record parsed only by
                            // luck of where the kill landed; drop it too —
                            // the episode reruns deterministically.
                            Ok(_) => {}
                            // Only the final line may be damaged — that is
                            // the kill-mid-write signature. Damage anywhere
                            // else means the file is not ours to trust.
                            Err(_) if i == last => {}
                            Err(e) => {
                                return Err(SweepError::spec(format!(
                                    "manifest line {} is corrupt: {e}",
                                    i + 1
                                )));
                            }
                        }
                    }
                }
            }
            if data.len() as u64 > valid_len {
                let damaged = OpenOptions::new().write(true).open(path)?;
                damaged.set_len(valid_len)?;
                damaged.sync_all()?;
            }
        }
        let mut journal = OpenOptions::new().create(true).append(true).open(path)?;
        if valid_len == 0 {
            let header = header_json(spec, false);
            writeln!(journal, "{header}")?;
            journal.flush()?;
        }
        Ok(Manifest {
            path: path.to_path_buf(),
            journal,
            records,
            complete,
        })
    }

    /// Episode indices already completed (sorted ascending).
    pub fn completed(&self) -> impl Iterator<Item = u64> + '_ {
        self.records.keys().copied()
    }

    /// `true` when `episode` is already recorded.
    pub fn contains(&self, episode: u64) -> bool {
        self.records.contains_key(&episode)
    }

    /// Number of completed episodes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no episodes are recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `true` when a previous run finalized this manifest.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The records, in episode-index order.
    pub fn records(&self) -> impl Iterator<Item = &EpisodeRecord> {
        self.records.values()
    }

    /// Appends one completed episode to the journal, flushed before
    /// return so a later kill cannot lose it.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on write failure.
    pub fn append(&mut self, record: EpisodeRecord) -> Result<(), SweepError> {
        if self.records.contains_key(&record.episode) {
            return Ok(());
        }
        writeln!(self.journal, "{}", record.to_json())?;
        self.journal.flush()?;
        self.records.insert(record.episode, record);
        Ok(())
    }

    /// Rewrites the manifest in canonical form: complete header, then
    /// records sorted by episode index. Written via a temporary sibling
    /// file and rename, so a kill during finalize leaves either the old
    /// journal or the finished artifact, never a half-written file.
    ///
    /// # Errors
    ///
    /// [`SweepError::Spec`] when called before every episode completed,
    /// [`SweepError::Io`] on filesystem failure.
    pub fn finalize(&mut self, spec: &SweepSpec) -> Result<(), SweepError> {
        let expected = spec.episode_count();
        if self.records.len() as u64 != expected {
            return Err(SweepError::spec(format!(
                "cannot finalize: {} of {expected} episodes recorded",
                self.records.len()
            )));
        }
        let tmp_path = self.path.with_extension("tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            writeln!(tmp, "{}", header_json(spec, true))?;
            for record in self.records.values() {
                writeln!(tmp, "{}", record.to_json())?;
            }
            tmp.flush()?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen the journal handle onto the canonical file so further
        // appends (there should be none) do not resurrect the old inode.
        self.journal = OpenOptions::new().append(true).open(&self.path)?;
        self.complete = true;
        Ok(())
    }

    /// The canonical bytes of the manifest as currently on disk.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on read failure.
    pub fn bytes(&self) -> Result<Vec<u8>, SweepError> {
        let mut f = File::open(&self.path)?;
        f.seek(std::io::SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }
}

fn header_json(spec: &SweepSpec, complete: bool) -> Json {
    let mut members = vec![
        (
            "fet_sweep_manifest".to_string(),
            Json::Int(MANIFEST_VERSION),
        ),
        ("spec_hash".to_string(), Json::Str(spec.hash())),
        (
            "episodes".to_string(),
            Json::Int(spec.episode_count() as i64),
        ),
        ("spec".to_string(), spec.to_json()),
    ];
    if complete {
        members.push(("complete".to_string(), Json::Bool(true)));
    }
    Json::Object(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::WarmCache;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fet-sweep-manifest-{name}-{}", std::process::id()));
        p
    }

    fn run_records(spec: &SweepSpec, upto: u64) -> Vec<EpisodeRecord> {
        let cache = WarmCache::new();
        (0..upto)
            .map(|i| spec.run_episode(i, &cache).unwrap())
            .collect()
    }

    #[test]
    fn journal_resumes_and_finalizes_canonically() {
        let spec = SweepSpec::single_cell(100, 1, 4);
        let path = temp_path("resume");
        let _ = std::fs::remove_file(&path);
        let records = run_records(&spec, 4);

        // Uninterrupted reference run.
        let mut reference = Manifest::open(&path, &spec).unwrap();
        for r in &records {
            reference.append(r.clone()).unwrap();
        }
        reference.finalize(&spec).unwrap();
        let want = reference.bytes().unwrap();
        std::fs::remove_file(&path).unwrap();

        // Interrupted run: two episodes (completion order scrambled),
        // then "kill", then resume and finish.
        let mut first = Manifest::open(&path, &spec).unwrap();
        first.append(records[2].clone()).unwrap();
        first.append(records[0].clone()).unwrap();
        drop(first);
        let mut resumed = Manifest::open(&path, &spec).unwrap();
        assert_eq!(resumed.completed().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!resumed.is_complete());
        resumed.append(records[3].clone()).unwrap();
        resumed.append(records[1].clone()).unwrap();
        resumed.finalize(&spec).unwrap();
        assert_eq!(
            resumed.bytes().unwrap(),
            want,
            "byte-identical after resume"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_line_is_dropped() {
        let spec = SweepSpec::single_cell(100, 1, 3);
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        let records = run_records(&spec, 2);
        let mut m = Manifest::open(&path, &spec).unwrap();
        m.append(records[0].clone()).unwrap();
        m.append(records[1].clone()).unwrap();
        drop(m);
        // Emulate a kill mid-write: chop the file mid final line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 17]).unwrap();
        let reopened = Manifest::open(&path, &spec).unwrap();
        assert_eq!(reopened.completed().collect::<Vec<_>>(), vec![0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_after_truncated_line_keeps_journal_clean() {
        let spec = SweepSpec::single_cell(100, 1, 3);
        let path = temp_path("retruncate");
        let _ = std::fs::remove_file(&path);
        let records = run_records(&spec, 3);
        let mut m = Manifest::open(&path, &spec).unwrap();
        m.append(records[0].clone()).unwrap();
        m.append(records[1].clone()).unwrap();
        drop(m);
        // Kill mid-write of record 1, resume, keep appending, then
        // resume again: the post-resume appends must land on a clean
        // line, not merged onto the damaged remnant.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 17]).unwrap();
        let mut resumed = Manifest::open(&path, &spec).unwrap();
        assert_eq!(resumed.completed().collect::<Vec<_>>(), vec![0]);
        resumed.append(records[1].clone()).unwrap();
        resumed.append(records[2].clone()).unwrap();
        drop(resumed);
        let again = Manifest::open(&path, &spec).unwrap();
        assert_eq!(again.completed().collect::<Vec<_>>(), vec![0, 1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unterminated_final_record_is_rerun() {
        let spec = SweepSpec::single_cell(100, 1, 2);
        let path = temp_path("no-newline");
        let _ = std::fs::remove_file(&path);
        let records = run_records(&spec, 2);
        let mut m = Manifest::open(&path, &spec).unwrap();
        m.append(records[0].clone()).unwrap();
        m.append(records[1].clone()).unwrap();
        drop(m);
        // Kill after the record's bytes but before its newline: the
        // record parses, but appending after it would merge lines, so
        // the loader drops it for a deterministic rerun.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        let mut resumed = Manifest::open(&path, &spec).unwrap();
        assert_eq!(resumed.completed().collect::<Vec<_>>(), vec![0]);
        resumed.append(records[1].clone()).unwrap();
        resumed.finalize(&spec).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_header_only_file_starts_fresh() {
        let spec = SweepSpec::single_cell(100, 1, 2);
        let path = temp_path("torn-header");
        let _ = std::fs::remove_file(&path);
        drop(Manifest::open(&path, &spec).unwrap());
        // Kill mid-write of the header itself: no records existed, so
        // the file is treated as empty and the header rewritten.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let m = Manifest::open(&path, &spec).unwrap();
        assert!(m.is_empty());
        drop(m);
        let reopened = Manifest::open(&path, &spec).unwrap();
        assert!(reopened.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_spec_is_refused() {
        let spec = SweepSpec::single_cell(100, 1, 3);
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        drop(Manifest::open(&path, &spec).unwrap());
        let other = SweepSpec::single_cell(100, 1, 5);
        let err = Manifest::open(&path, &other).unwrap_err();
        assert!(matches!(err, SweepError::ManifestMismatch { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// A manifest written for a spec that said `"mode": "batched"` was
    /// hashed over that spelling; the same spec now canonicalizes to
    /// `fused`, so the old journal is refused, never resumed onto the new
    /// stream.
    #[test]
    fn manifests_of_batched_specs_are_refused() {
        let spec =
            SweepSpec::parse(r#"{"n": [100], "fidelity": "agent", "mode": "batched"}"#).unwrap();
        let path = temp_path("batched");
        // The header the batched-era canonical form hashed to.
        std::fs::write(&path, "{\"spec_hash\":\"fd4be503b02ad662\"}\n").unwrap();
        let err = Manifest::open(&path, &spec).unwrap_err();
        assert!(matches!(err, SweepError::ManifestMismatch { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_appends_are_ignored() {
        let spec = SweepSpec::single_cell(100, 1, 2);
        let path = temp_path("dup");
        let _ = std::fs::remove_file(&path);
        let records = run_records(&spec, 1);
        let mut m = Manifest::open(&path, &spec).unwrap();
        m.append(records[0].clone()).unwrap();
        m.append(records[0].clone()).unwrap();
        assert_eq!(m.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn finalize_before_completion_is_an_error() {
        let spec = SweepSpec::single_cell(100, 1, 3);
        let path = temp_path("early");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path, &spec).unwrap();
        assert!(m.finalize(&spec).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
