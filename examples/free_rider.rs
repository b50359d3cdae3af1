//! Tit-for-tat incentives vs a free-rider.
//!
//! Three devices meet repeatedly. Alice and Bob contribute — they carry and
//! forward metadata the others asked for. Carol free-rides: she requests but
//! never carries anything useful. Under the tit-for-tat scheduler (paper
//! §IV-B), Alice and Bob accumulate credit with each other and get their
//! requests served first when budgets are tight; Carol is not choked (the
//! broadcast reaches her anyway) but her requests rank last.
//!
//! Run with: `cargo run -p mbt-experiments --example free_rider`

use dtn_trace::NodeId;
use mbt_core::download::{tft, Offer};
use mbt_core::{CreditLedger, Metadata, Popularity, Uri};

fn meta(name: &str, uri: &str) -> Metadata {
    Metadata::builder(name, "FOX", Uri::new(uri).unwrap()).build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let alice = NodeId::new(0);
    let bob = NodeId::new(1);
    let carol = NodeId::new(2);

    // Bob's view of the world after a week of contacts: Alice repeatedly
    // delivered metadata he had queried for; Carol never sent anything.
    let mut bob_ledger = CreditLedger::new();
    for _ in 0..3 {
        bob_ledger.reward_matched(alice);
    }
    bob_ledger.reward_unmatched(alice, Popularity::new(0.4));
    println!("Bob's ledger after a week:");
    for (peer, credit) in bob_ledger.ranked_peers() {
        println!("  {peer}: {credit:.1} credit");
    }
    println!(
        "  {carol}: {:.1} credit (never contributed)\n",
        bob_ledger.credit_of(carol)
    );

    // Bob now holds two metadata: one Alice asked for, one Carol asked for.
    // His contact is short — the budget allows only ONE metadata. The
    // metadata phase orders its offers with the tit-for-tat scheduler.
    let for_alice = meta("jazz festival recap", "mbt://jazz");
    let for_carol = meta("cooking show finale", "mbt://cooking");
    let offers = vec![
        Offer::new(
            for_carol.uri().clone(),
            Popularity::MAX,
            vec![carol],
            vec![bob],
        ),
        Offer::new(
            for_alice.uri().clone(),
            Popularity::MIN,
            vec![alice],
            vec![bob],
        ),
    ];
    let members = [alice, bob, carol];
    let empty = CreditLedger::new();
    let ledger_of = |id: NodeId| if id == bob { &bob_ledger } else { &empty };
    let name_of = |uri: &Uri| {
        [&for_alice, &for_carol]
            .into_iter()
            .find(|m| m.uri() == uri)
            .map_or("?", |m| m.name())
    };

    let order = tft::schedule(&members, offers.clone(), ledger_of, 1);
    println!(
        "budget = 1 metadata; Bob broadcasts: {}",
        name_of(&order[0].item)
    );
    assert_eq!(order[0].item.as_str(), "mbt://jazz");
    println!("  -> the contributor's request wins, despite lower popularity\n");

    // With a budget of 2, Carol still gets served — free-riders are not
    // completely inhibited, broadcast reaches them; they just wait longer.
    let order = tft::schedule(&members, offers, ledger_of, 2);
    println!("budget = 2 metadata; broadcast order:");
    for (i, b) in order.iter().enumerate() {
        println!("  {}. {}", i + 1, name_of(&b.item));
    }
    assert_eq!(order[1].item.as_str(), "mbt://cooking");
    println!("  -> Carol is served second: deprioritized, not excluded.");
    Ok(())
}
