//! The notebook session script of `interactive_session`: the call mix of
//! the paper's Figure 5 — `plot`, `plot_correlation` and `plot_missing`
//! at zero, one and two columns — followed by re-issued calls and warm
//! reports. A pure function of the seed and the column names.

/// Pairs drawn per pair type (numeric-numeric, numeric-categorical,
/// categorical-categorical). Fixed so that every seed issues the same
/// number of calls of every kind and only the columns differ.
const PAIRS_PER_TYPE: usize = 3;
const WARM_REPORTS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    Plot,
    Correlation,
    Missing,
    Report,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    pub func: Func,
    pub columns: Vec<String>,
    /// A repeat of an earlier call of this session.
    pub reissue: bool,
}

impl Call {
    pub fn new(func: Func, columns: &[&String]) -> Call {
        Call {
            func,
            columns: columns.iter().map(|c| c.to_string()).collect(),
            reissue: false,
        }
    }

    /// The call kind the per-layer metrics are bucketed by.
    pub fn kind(&self) -> &'static str {
        match (self.func, self.columns.len()) {
            (Func::Report, _) => "report_warm",
            (Func::Plot, 0) => "plot_df",
            (Func::Plot, 1) => "plot_x",
            (Func::Plot, _) => "plot_xy",
            (Func::Correlation, 0) => "corr_df",
            (Func::Correlation, 1) => "corr_x",
            (Func::Correlation, _) => "corr_xy",
            (Func::Missing, 0) => "missing_df",
            (Func::Missing, 1) => "missing_x",
            (Func::Missing, _) => "missing_xy",
        }
    }
}

/// SplitMix64: small, seedable, and good enough to shuffle column pairs.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Build the session script for `seed` over the given columns.
pub fn script(seed: u64, numeric: &[String], categorical: &[String]) -> Vec<Call> {
    let mut rng = SplitMix64(seed);
    let all: Vec<&String> = numeric.iter().chain(categorical).collect();
    let mut calls = vec![
        Call::new(Func::Plot, &[]),
        Call::new(Func::Correlation, &[]),
        Call::new(Func::Missing, &[]),
    ];
    calls.extend(all.iter().map(|c| Call::new(Func::Plot, &[c])));
    calls.extend(numeric.iter().map(|c| Call::new(Func::Correlation, &[c])));
    calls.extend(all.iter().map(|c| Call::new(Func::Missing, &[c])));

    let unordered = |cols: &'_ [String]| -> Vec<(usize, usize)> {
        (0..cols.len())
            .flat_map(|i| (i + 1..cols.len()).map(move |j| (i, j)))
            .collect()
    };
    let mut num_num = unordered(numeric);
    let mut cat_cat = unordered(categorical);
    let mut num_cat: Vec<(usize, usize)> = (0..numeric.len())
        .flat_map(|i| (0..categorical.len()).map(move |j| (i, j)))
        .collect();
    rng.shuffle(&mut num_num);
    rng.shuffle(&mut num_cat);
    rng.shuffle(&mut cat_cat);
    for &(i, j) in num_num.iter().take(PAIRS_PER_TYPE) {
        let pair = [&numeric[i], &numeric[j]];
        calls.push(Call::new(Func::Plot, &pair));
        calls.push(Call::new(Func::Correlation, &pair));
        calls.push(Call::new(Func::Missing, &pair));
    }
    for &(i, j) in num_cat.iter().take(PAIRS_PER_TYPE) {
        let pair = [&numeric[i], &categorical[j]];
        calls.push(Call::new(Func::Plot, &pair));
        calls.push(Call::new(Func::Missing, &pair));
    }
    for &(i, j) in cat_cat.iter().take(PAIRS_PER_TYPE) {
        let pair = [&categorical[i], &categorical[j]];
        calls.push(Call::new(Func::Plot, &pair));
        calls.push(Call::new(Func::Missing, &pair));
    }

    // Re-issue a seeded third of the calls of every kind, in their first
    // order: every seed repeats the same number of calls of each kind.
    let mut picks: Vec<usize> = Vec::new();
    let mut kinds: Vec<&'static str> = calls.iter().map(Call::kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let mut of_kind: Vec<usize> = (0..calls.len())
            .filter(|&i| calls[i].kind() == kind)
            .collect();
        rng.shuffle(&mut of_kind);
        picks.extend(&of_kind[..of_kind.len() / 3]);
    }
    picks.sort_unstable();
    let repeats: Vec<Call> = picks
        .into_iter()
        .map(|i| Call {
            reissue: true,
            ..calls[i].clone()
        })
        .collect();
    calls.extend(repeats);

    calls.extend((0..WARM_REPORTS).map(|_| Call::new(Func::Report, &[])));
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn columns() -> (Vec<String>, Vec<String>) {
        (
            (0..6).map(|i| format!("num{i}")).collect(),
            (0..9).map(|i| format!("cat{i}")).collect(),
        )
    }

    fn kind_counts(calls: &[Call]) -> BTreeMap<(&'static str, bool), usize> {
        let mut counts = BTreeMap::new();
        for c in calls {
            *counts.entry((c.kind(), c.reissue)).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        let (num, cat) = columns();
        assert_eq!(script(42, &num, &cat), script(42, &num, &cat));
        assert_ne!(script(42, &num, &cat), script(43, &num, &cat));
    }

    #[test]
    fn every_seed_issues_the_same_number_of_calls_per_kind() {
        let (num, cat) = columns();
        let reference = kind_counts(&script(1, &num, &cat));
        for seed in 2..20 {
            assert_eq!(
                kind_counts(&script(seed, &num, &cat)),
                reference,
                "seed {seed}"
            );
        }
        let expected = [
            ("plot_df", 1, 0),
            ("plot_x", 15, 5),
            ("plot_xy", 9, 3),
            ("corr_df", 1, 0),
            ("corr_x", 6, 2),
            ("corr_xy", 3, 1),
            ("missing_df", 1, 0),
            ("missing_x", 15, 5),
            ("missing_xy", 9, 3),
            ("report_warm", 3, 0),
        ];
        for (kind, first, repeated) in expected {
            assert_eq!(
                reference.get(&(kind, false)).copied().unwrap_or(0),
                first,
                "{kind}"
            );
            assert_eq!(
                reference.get(&(kind, true)).copied().unwrap_or(0),
                repeated,
                "{kind} repeats"
            );
        }
        assert_eq!(script(1, &num, &cat).len(), 82);
    }

    #[test]
    fn each_repeat_reissues_an_earlier_call() {
        let (num, cat) = columns();
        let calls = script(7, &num, &cat);
        let first: Vec<&Call> = calls.iter().filter(|c| !c.reissue).collect();
        for (at, repeat) in calls.iter().enumerate().filter(|(_, c)| c.reissue) {
            let earlier = first
                .iter()
                .any(|f| f.func == repeat.func && f.columns == repeat.columns);
            assert!(earlier && at >= 60, "{repeat:?} at {at}");
        }
    }

    #[test]
    fn pairs_are_distinct_and_correlation_pairs_are_numeric() {
        let (num, cat) = columns();
        let calls = script(99, &num, &cat);
        let mut pairs: Vec<&Vec<String>> = calls
            .iter()
            .filter(|c| !c.reissue && c.kind() == "plot_xy")
            .map(|c| &c.columns)
            .collect();
        let before = pairs.len();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), before);
        for c in calls.iter().filter(|c| c.func == Func::Correlation) {
            assert!(
                c.columns.iter().all(|name| name.starts_with("num")),
                "{c:?}"
            );
        }
    }
}
