#include "data/real_like.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace isrl {
namespace {

double ClampPositive(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

Dataset MakeCarDataset(Rng& rng, size_t rows) {
  ISRL_CHECK_GE(rows, 1u);
  std::vector<Vec> points;
  points.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    // Age drives both price depreciation and accumulated mileage, producing
    // the negative price↔mileage correlation of a used-car market.
    // Annual mileage has a firm floor: cheap (old) cars always carry real
    // mileage, so no tuple is simultaneously near-best in price and mileage
    // and the three-way trade-off stays live.
    double age_years = rng.Uniform(0.5, 20.0);
    double annual_miles = ClampPositive(rng.Gaussian(12000.0, 5000.0), 4000.0,
                                        30000.0);
    // Odometer caps at 220k (junked beyond that): the cap is *reached* by
    // typical old cars, so cheap necessarily means high-mileage and the
    // price↔mileage tension is real rather than an outlier artefact.
    double mileage = std::min(220000.0,
                              age_years * annual_miles + rng.Uniform(0.0, 3000.0));
    // New-car prices live in a moderate band (8k–40k) so depreciation spreads
    // the market across the full normalised range instead of compressing it
    // near the top; no single car can be near-best for every preference.
    double base_price =
        ClampPositive(std::exp(rng.Gaussian(9.85, 0.35)), 8000.0, 40000.0);
    double price = ClampPositive(
        base_price * std::exp(-0.12 * age_years) * rng.Uniform(0.8, 1.2),
        800.0, 40000.0);
    // Economy cars (cheaper new price) tend to have higher mpg; the slope is
    // steep enough that price and mpg genuinely compete.
    double mpg = ClampPositive(
        55.0 - 22.0 * std::log(base_price / 8000.0) + rng.Gaussian(0.0, 8.0),
        10.0, 60.0);
    points.push_back(Vec{price, mileage, mpg});
  }
  // Price and mileage are smaller-is-better; mpg larger-is-better.
  NormalizeRows(points, {false, false, true});
  Dataset cars(std::move(points));
  cars.set_attribute_names({"price", "mileage", "mpg"});
  return cars;
}

Dataset MakePlayerDataset(Rng& rng, size_t rows) {
  ISRL_CHECK_GE(rows, 1u);
  std::vector<Vec> points;
  points.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    // Latent overall skill plus a *competing* role split: the role weights
    // sum to a fixed budget (Dirichlet), so excelling as a scorer costs
    // rebounding/playmaking output. No player dominates every attribute and
    // different scout preferences surface different players.
    double skill = std::exp(rng.Gaussian(0.0, 0.35));
    Vec roles = rng.SimplexUniform(3);
    double scoring_role = 0.15 + 1.8 * roles[0];
    double rebounding_role = 0.15 + 1.8 * roles[1];
    double playmaking_role = 0.15 + 1.8 * roles[2];
    double minutes_share = ClampPositive(rng.Gaussian(0.55, 0.2), 0.15, 1.0);

    auto stat = [&](double role, double scale, double noise_sd) {
      return ClampPositive(
          skill * role * minutes_share * scale * std::exp(rng.Gaussian(0.0, noise_sd)),
          0.01, 1e6);
    };

    Vec p(kPlayerAttributes);
    p[0] = ClampPositive(rng.Gaussian(55.0, 18.0), 1.0, 82.0);       // games
    p[1] = minutes_share * 36.0;                                      // minutes
    p[2] = stat(scoring_role, 18.0, 0.25);                            // points
    p[3] = stat(scoring_role, 7.0, 0.25);                             // fg made
    p[4] = ClampPositive(rng.Gaussian(0.45, 0.06), 0.2, 0.7);         // fg%
    p[5] = stat(scoring_role, 1.8, 0.5);                              // 3pt made
    p[6] = ClampPositive(rng.Gaussian(0.34, 0.07), 0.05, 0.55);       // 3pt%
    p[7] = stat(scoring_role, 3.5, 0.35);                             // ft made
    p[8] = ClampPositive(rng.Gaussian(0.76, 0.08), 0.4, 0.95);        // ft%
    p[9] = stat(rebounding_role, 1.5, 0.4);                           // oreb
    p[10] = stat(rebounding_role, 4.5, 0.35);                         // dreb
    p[11] = p[9] + p[10];                                             // reb
    p[12] = stat(playmaking_role, 4.0, 0.4);                          // assists
    p[13] = stat(playmaking_role, 1.0, 0.4);                          // steals
    p[14] = stat(rebounding_role, 0.8, 0.6);                          // blocks
    // Turnovers/fouls are bad; generate raw counts, inverted by NormalizeRows.
    p[15] = stat(playmaking_role, 2.0, 0.4);                          // tov
    p[16] = ClampPositive(rng.Gaussian(2.2, 0.8), 0.0, 6.0);          // fouls
    p[17] = skill * minutes_share * 6.0 + rng.Gaussian(0.0, 3.0);     // +/-
    p[18] = ClampPositive(scoring_role * skill * 0.2 +
                              rng.Gaussian(0.18, 0.05), 0.05, 0.45);  // usage
    p[19] = skill * minutes_share * 15.0 *
            std::exp(rng.Gaussian(0.0, 0.2));                         // eff
    points.push_back(std::move(p));
  }
  std::vector<bool> higher_is_better(kPlayerAttributes, true);
  higher_is_better[15] = false;  // turnovers
  higher_is_better[16] = false;  // fouls
  NormalizeRows(points, higher_is_better);
  Dataset players(std::move(points));
  players.set_attribute_names({
      "games", "minutes", "points", "fg_made", "fg_pct", "three_made",
      "three_pct", "ft_made", "ft_pct", "off_rebounds", "def_rebounds",
      "rebounds", "assists", "steals", "blocks", "turnovers_inv", "fouls_inv",
      "plus_minus", "usage", "efficiency"});
  return players;
}

}  // namespace isrl
