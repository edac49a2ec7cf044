//! The analyses keep their per-page state in std hash maps, whose
//! `RandomState` draws fresh keys for every map, so two calls in one
//! process visit pages in different orders. Equal results across such
//! calls show no result depends on that order (clippy cannot see a hash
//! map's `into_iter` feeding a float fold; this test can).

use planaria_analysis::{learnable_fraction, overlap_rate, reuse_histogram};
use planaria_trace::apps::{profile, AppId};

#[test]
fn results_do_not_depend_on_hash_order() {
    for app in AppId::ALL {
        let trace = profile(app).scaled(50_000).build();
        assert_eq!(overlap_rate(&trace), overlap_rate(&trace), "{app:?} overlap_rate");
        for threshold in [4, 16, 64] {
            assert_eq!(
                learnable_fraction(&trace, threshold),
                learnable_fraction(&trace, threshold),
                "{app:?} learnable_fraction at distance {threshold}"
            );
        }
        assert_eq!(reuse_histogram(&trace), reuse_histogram(&trace), "{app:?} reuse_histogram");
    }
}
