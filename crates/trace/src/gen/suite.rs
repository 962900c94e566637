//! Benchmark suites grouping the named applications, mirroring the paper's
//! evaluation over SPEC CPU 2006, SPEC CPU 2017, and GAP.

/// A benchmark suite: a name plus its member applications.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// Suite name as used in Table VI ("SPEC 06", "SPEC 17", "GAP").
    pub name: &'static str,
    /// Member application names resolvable via
    /// [`app_by_name`](super::app_by_name).
    pub apps: &'static [&'static str],
}

/// All suite names known to [`suite_by_name`].
pub const SUITE_NAMES: &[&str] = &["SPEC 06", "SPEC 17", "GAP"];

/// The three suites of the paper's evaluation.
pub const SUITES: &[Suite] = &[
    Suite {
        name: "SPEC 06",
        apps: &[
            "433.milc",
            "433.lbm",
            "429.mcf",
            "462.libquantum",
            "471.omnetpp",
        ],
    },
    Suite {
        name: "SPEC 17",
        apps: &["602.gcc", "621.wrf", "623.xalancbmk", "654.roms"],
    },
    Suite {
        name: "GAP",
        apps: &["gap.bfs", "gap.pr", "gap.cc"],
    },
];

/// Look up a suite by name.
pub fn suite_by_name(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::super::app_by_name;
    use super::*;

    #[test]
    fn suites_resolve() {
        for &n in SUITE_NAMES {
            let s = suite_by_name(n).unwrap();
            assert!(!s.apps.is_empty());
        }
        assert!(suite_by_name("SPEC 95").is_none());
    }

    #[test]
    fn suite_members_are_valid_apps() {
        for s in SUITES {
            for &n in s.apps {
                assert!(app_by_name(n, 1).is_some(), "{n} is not an app name");
            }
        }
    }

    #[test]
    fn suites_cover_twelve_apps_without_overlap() {
        let mut all: Vec<&str> = SUITES.iter().flat_map(|s| s.apps.iter().copied()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "apps must not repeat across suites");
        assert_eq!(n, 12);
    }
}
